package profile

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetpapi/internal/events"
	"hetpapi/internal/perfevent"
	"hetpapi/internal/scenario"
	"hetpapi/internal/sim"
)

// Config parameterizes a Collector.
type Config struct {
	// Period is the sampling period in cycles (default 2,000,000 — about
	// one overflow per simulator tick per busy task at GHz-range clocks).
	// Must be at least perfevent.MinSamplePeriod.
	Period uint64
	// DrainEveryTicks is the ring-drain cadence (default 32 ticks). Rings
	// are sized far above one cadence's worth of overflow records, so the
	// cadence trades drain syscall frequency against ring residency, not
	// against loss.
	DrainEveryTicks int
}

func (c *Config) fill() {
	if c.Period == 0 {
		c.Period = 2_000_000
	}
	if c.DrainEveryTicks <= 0 {
		c.DrainEveryTicks = 32
	}
}

// ring is one open sampling descriptor (one task on one core-type PMU).
type ring struct {
	fd       int
	pid      int
	typeName string
}

// OverheadReport is the profiler's self-accounting, following the
// discipline of the telemetry collector and the span recorder: a
// measurement layer must report its own cost.
type OverheadReport struct {
	// Ticks and Drains count hook invocations and ring-drain passes.
	Ticks  int64
	Drains int64
	// DrainNsPerTick is the mean wall-clock profiling cost per simulator
	// tick (drain + aggregation, amortized over every tick).
	DrainNsPerTick float64
	// SamplesPerSimSec is the retained overflow-record rate against
	// simulated time.
	SamplesPerSimSec float64
	// LostRatio is lost/(lost+emitted) across all rings.
	LostRatio float64
}

// Collector owns the profiler's kernel plumbing for one simulated
// machine: it opens one sampled cycles event per core-type PMU for every
// attached task (the paper's per-PMU split — a cpu_core event only fires
// on P-cores), drains the rings on a configurable cadence, and folds the
// records into a Profile.
//
// The kernel-facing methods (Attach, Drain, Finish, Close, the hooks) must
// run on the simulation goroutine. Snapshot, LastRun, Overhead and the
// counter accessors are safe from any goroutine (HTTP handlers).
type Collector struct {
	cfg Config

	mu   sync.Mutex
	sim  *sim.Machine
	prof *Profile
	last *Profile
	// snapSec/snapStart mirror the sim clock and run start under mu: the
	// sim goroutine stamps them (bind, Drain), so Snapshot can compute
	// the covered duration without touching the unsynchronized sim clock
	// from an HTTP goroutine.
	snapSec   float64
	snapStart float64

	rings    []ring
	attached map[int]bool
	startSec float64
	ticks    int64

	ticksTotal   atomic.Int64
	drains       atomic.Int64
	drainNs      atomic.Int64
	emittedTotal atomic.Uint64
	lostTotal    atomic.Uint64
}

// NewCollector builds a collector for the machine. Attach tasks (or use
// Hook with a scenario) before samples can flow. A nil machine is allowed
// when the collector rides a scenario Hook — the hook binds to the run's
// machine on its first tick (hetpapid boots a fresh machine per run).
func NewCollector(s *sim.Machine, cfg Config) *Collector {
	cfg.fill()
	c := &Collector{cfg: cfg, prof: New("cycles", cfg.Period), attached: map[int]bool{}}
	if s != nil {
		c.bind(s)
	}
	return c
}

// bind points the collector at a (possibly new) machine and starts a
// fresh profile. Caller holds no locks; sim-goroutine only.
func (c *Collector) bind(s *sim.Machine) {
	c.mu.Lock()
	c.sim = s
	c.prof = New("cycles", c.cfg.Period)
	c.snapStart = s.Now()
	c.snapSec = c.snapStart
	c.mu.Unlock()
	c.rings = nil
	c.attached = map[int]bool{}
	c.startSec = s.Now()
	c.ticks = 0
}

// Attach opens the per-core-type sampled events for one task. A PMU whose
// cycles counter cannot be opened (an NMI-watchdog hold, exhausted
// counters) is recorded in the profile's MissingPMUs instead of failing
// the attach: the profiler degrades to a partial profile the way perf
// record does when a PMU is busy.
func (c *Collector) Attach(pid int) {
	if c.attached[pid] {
		return
	}
	c.attached[pid] = true
	m := c.sim.HW
	for i := range m.Types {
		t := &m.Types[i]
		attr := perfevent.HardwareAttr(t.PMU.PerfType, events.HWCPUCycles)
		attr.SamplePeriod = c.cfg.Period
		fd, err := c.sim.Kernel.Open(attr, pid, -1, -1)
		if err != nil {
			c.mu.Lock()
			c.noteMissing(t.Name)
			c.mu.Unlock()
			continue
		}
		c.rings = append(c.rings, ring{fd: fd, pid: pid, typeName: t.Name})
	}
	c.mu.Lock()
	c.prof.Rings = len(c.rings)
	c.mu.Unlock()
}

// noteMissing records a core type with no sampled event; mu held.
func (c *Collector) noteMissing(typeName string) {
	for _, have := range c.prof.MissingPMUs {
		if have == typeName {
			return
		}
	}
	c.prof.MissingPMUs = append(c.prof.MissingPMUs, typeName)
	sort.Strings(c.prof.MissingPMUs)
}

// Drain empties every ring into the profile. Dead descriptors (a task
// exited, a fault killed the fd) are dropped from the ring list; their
// samples up to the failure are already aggregated.
func (c *Collector) Drain() {
	start := time.Now()
	kept := c.rings[:0]
	var emitted, lost uint64
	c.mu.Lock()
	for _, r := range c.rings {
		samples, rlost, err := c.sim.Kernel.ReadSamples(r.fd)
		if err != nil {
			// ENODEV/EBADF: the descriptor is gone; stop polling it. Its
			// core type keeps its remaining rings (same-type events of
			// other tasks), so this is loss of coverage for one task only.
			continue
		}
		c.prof.AddRing(samples, rlost)
		emitted += uint64(len(samples))
		lost += rlost
		kept = append(kept, r)
	}
	c.rings = kept
	c.prof.Rings = len(c.rings)
	c.snapSec = c.sim.Now()
	c.mu.Unlock()
	c.drains.Add(1)
	c.drainNs.Add(int64(time.Since(start)))
	c.emittedTotal.Add(emitted)
	c.lostTotal.Add(lost)
}

// Hook returns a scenario step hook that runs the profiler over a
// scenario: it attaches every workload process it sees (including
// late-spawned ones), drains on the configured cadence, and — when the
// same collector is reused across runs, as hetpapid's loop mode does —
// detects the fresh machine of a new run, archives the finished profile
// (LastRun) and rebinds.
func (c *Collector) Hook() scenario.StepHook {
	return func(ctx *scenario.Context) {
		if ctx.Sim != c.sim {
			if c.sim != nil {
				c.finishLocked()
			}
			c.bind(ctx.Sim)
		}
		for _, p := range ctx.Procs {
			c.Attach(p.PID)
		}
		c.ticks++
		c.ticksTotal.Add(1)
		if c.ticks%int64(c.cfg.DrainEveryTicks) == 0 {
			c.Drain()
		}
	}
}

// SimHook returns a machine-level step hook for direct (scenario-less)
// simulation driving; the caller attaches pids itself.
func (c *Collector) SimHook() sim.StepHook {
	return func(*sim.Machine) {
		c.ticks++
		c.ticksTotal.Add(1)
		if c.ticks%int64(c.cfg.DrainEveryTicks) == 0 {
			c.Drain()
		}
	}
}

// finishLocked drains, stamps the duration and archives the profile as
// the last completed run.
func (c *Collector) finishLocked() {
	c.Drain()
	c.mu.Lock()
	c.prof.DurationSec = c.sim.Now() - c.startSec
	c.last = c.prof.Clone()
	c.mu.Unlock()
}

// Finish drains outstanding samples, stamps the covered duration and
// returns the completed profile. Sim goroutine only.
func (c *Collector) Finish() *Profile {
	c.finishLocked()
	return c.LastRun()
}

// Close closes every descriptor. Sim goroutine only.
func (c *Collector) Close() {
	for _, r := range c.rings {
		c.sim.Kernel.Close(r.fd)
	}
	c.rings = nil
	c.mu.Lock()
	c.prof.Rings = 0
	c.mu.Unlock()
}

// Snapshot returns a copy of the in-progress profile, safe for
// concurrent export while the hook keeps aggregating. The duration
// reflects sim time covered so far.
func (c *Collector) Snapshot() *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.prof.Clone()
	if p.DurationSec == 0 {
		p.DurationSec = c.snapSec - c.snapStart
	}
	return p
}

// LastRun returns the profile of the last completed run (nil before the
// first Finish/rebind).
func (c *Collector) LastRun() *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last == nil {
		return nil
	}
	return c.last.Clone()
}

// EmittedTotal returns retained overflow records across all runs.
func (c *Collector) EmittedTotal() uint64 { return c.emittedTotal.Load() }

// LostTotal returns ring-dropped overflow records across all runs.
func (c *Collector) LostTotal() uint64 { return c.lostTotal.Load() }

// Overhead returns the self-overhead report.
func (c *Collector) Overhead() OverheadReport {
	r := OverheadReport{
		Ticks:  c.ticksTotal.Load(),
		Drains: c.drains.Load(),
	}
	if r.Ticks > 0 {
		r.DrainNsPerTick = float64(c.drainNs.Load()) / float64(r.Ticks)
	}
	emitted, lost := c.emittedTotal.Load(), c.lostTotal.Load()
	if emitted+lost > 0 {
		r.LostRatio = float64(lost) / float64(emitted+lost)
	}
	c.mu.Lock()
	var simSec float64
	if c.sim != nil {
		simSec = c.sim.Now() - c.startSec
	}
	if c.last != nil {
		simSec += c.last.DurationSec
	}
	c.mu.Unlock()
	if simSec > 0 {
		r.SamplesPerSimSec = float64(emitted) / simSec
	}
	return r
}

func (r OverheadReport) String() string {
	return fmt.Sprintf("profiler overhead: %.0f ns/tick over %d ticks (%d drains), %.0f samples/simsec, lost ratio %.4f",
		r.DrainNsPerTick, r.Ticks, r.Drains, r.SamplesPerSimSec, r.LostRatio)
}
