package scenario

import (
	"errors"
	"fmt"
	"math"

	"hetpapi/internal/hw"
	"hetpapi/internal/perfevent"
	"hetpapi/internal/power"
	"hetpapi/internal/sched"
	"hetpapi/internal/sim"
)

// Context is the state an invariant checks against. The harness maintains
// it across a run; invariants may keep private per-run state of their own
// (instances returned by Standard() are therefore single-use).
type Context struct {
	// Sim is the running machine, in a consistent post-tick state.
	Sim *sim.Machine
	// Spec is the scenario being run.
	Spec *Spec
	// StartSec is the machine time at which the run began (non-zero on
	// warm machines).
	StartSec float64
	// PrevNowSec is the machine time after the previous tick's checks.
	PrevNowSec float64
	// StartEnergyJ is the package energy at the start of the run.
	StartEnergyJ float64
	// PowerIntegralJ is the harness-side ∫ P_pkg dt over the run so far.
	PowerIntegralJ float64
	// Wide are the per-CPU own-PMU counters; Foreign are the
	// mismatched-PMU probes that must never count.
	Wide    []WideEvent
	Foreign []WideEvent
	// Procs are the processes the harness spawned.
	Procs []*sched.Process
	// Measure is the PAPI-probe state when the spec has one (nil
	// otherwise); the reads-monotonic and scale-bounded invariants audit
	// it every tick.
	Measure *MeasureState
}

// Invariant is a machine property checked on every tick and at end of run.
// Check runs after each tick; Final runs once after the last tick. Either
// may be a no-op.
type Invariant interface {
	// Name identifies the invariant in violation reports.
	Name() string
	// Check asserts the invariant against the post-tick state.
	Check(c *Context) error
	// Final asserts end-of-run properties.
	Final(c *Context) error
}

// Standard returns a fresh instance of every standard invariant:
//
//   - time-monotonic: simulated time advances by exactly one tick per step
//   - counter-monotonic: perf counters and RAPL energy never decrease
//   - energy-conservation: RAPL package energy equals ∫ P dt
//   - core-type-isolation: events of one core type's PMU never count on
//     CPUs of another type (hybrid machines)
//   - sched-affinity: no process ever runs on a CPU outside its mask
//   - freq-envelope: every CPU frequency stays inside its DVFS policy
//     envelope and under the thermal/user caps
//   - thermal-bounds: the zone stays within [ambient, TjMax]
//   - power-sanity: package power stays within the machine's physical
//     range and below the wall-meter reading
//   - reads-monotonic: the measurement probe's reported values never
//     decrease and its reads never fail, no matter how degraded the
//     substrate is (no-op without a Measure spec)
//   - scale-bounded: every probe value's scaled estimate respects its
//     declared error bound (Raw <= Final, ErrorBound = Scaled - Raw,
//     ScaleFactor >= 1; no-op without a Measure spec)
//
// Instances hold per-run state; build a new set for every run.
func Standard() []Invariant {
	return []Invariant{
		&timeMonotonic{},
		&counterMonotonic{},
		&energyConservation{},
		&coreTypeIsolation{},
		&schedAffinity{},
		&freqEnvelope{},
		&thermalBounds{},
		&powerSanity{},
		&readsMonotonic{},
		&scaleBounded{},
	}
}

// timeMonotonic asserts the clock advances by exactly one tick per step:
// any drift means wall-clock time or a second time base leaked into the
// simulation.
type timeMonotonic struct{}

func (timeMonotonic) Name() string { return "time-monotonic" }

func (timeMonotonic) Check(c *Context) error {
	now, tick := c.Sim.Now(), c.Sim.Tick()
	if now <= c.PrevNowSec {
		return fmt.Errorf("time went backwards: %.9f -> %.9f", c.PrevNowSec, now)
	}
	if d := now - c.PrevNowSec; math.Abs(d-tick) > tick*1e-6 {
		return fmt.Errorf("step advanced %.9fs, want one tick (%.9fs)", d, tick)
	}
	return nil
}

func (timeMonotonic) Final(*Context) error { return nil }

// counterMonotonic asserts no perf counter and no RAPL energy domain ever
// decreases — the validation Röhl et al. apply to real hardware events,
// here applied to every simulated one.
type counterMonotonic struct {
	// wide and foreign hold one baseline per Context.Wide and
	// Context.Foreign slot.
	wide, foreign []counterBaseline
	prevEnergy    [4]float64
}

// readMark is the descriptor a slot was last read from and its
// Kernel.Seq right after that read (0 before the first).
type readMark struct {
	fd  int
	seq uint64
}

// unchanged reports whether fd is the descriptor last read and the
// kernel has not updated it since, so that a Read would return the
// previous result again. Invariants run in a step hook, after Advance
// has applied every fault transition due at the tick, which is the
// precondition of Kernel.Seq's guarantee.
func (r *readMark) unchanged(k *perfevent.Kernel, fd int) bool {
	return r.seq != 0 && r.fd == fd && k.Seq(fd) == r.seq
}

// counterBaseline is a slot's previous reading, tagged with the fd it was
// read from: a slot reopened after hotplug has a new fd and starts a
// fresh baseline.
type counterBaseline struct {
	readMark
	value uint64
	ok    bool
}

func (counterMonotonic) Name() string { return "counter-monotonic" }

func (m *counterMonotonic) Check(c *Context) error {
	var err error
	if m.wide, err = checkCounters(c.Sim.Kernel, c.Wide, m.wide); err != nil {
		return err
	}
	if m.foreign, err = checkCounters(c.Sim.Kernel, c.Foreign, m.foreign); err != nil {
		return err
	}
	for i, d := range []power.Domain{power.DomainPkg, power.DomainCores, power.DomainRAM, power.DomainPsys} {
		e := c.Sim.Power.EnergyJ(d)
		if e < m.prevEnergy[i] {
			return fmt.Errorf("energy domain %d decreased: %.6f -> %.6f J", int(d), m.prevEnergy[i], e)
		}
		m.prevEnergy[i] = e
	}
	return nil
}

func (*counterMonotonic) Final(*Context) error { return nil }

// checkCounters checks every live event of set against its slot's
// baseline in base, which it grows to len(set) and returns. It reads only
// the slots the kernel updated since their last read: a skipped read would
// have returned the baseline again.
func checkCounters(k *perfevent.Kernel, set []WideEvent, base []counterBaseline) ([]counterBaseline, error) {
	for len(base) < len(set) {
		base = append(base, counterBaseline{})
	}
	for i := range set {
		we, b := &set[i], &base[i]
		if we.Dead || b.unchanged(k, we.FD) {
			continue
		}
		count, err := k.Read(we.FD)
		if err != nil {
			// A fault plan can offline a CPU without going through the
			// harness's hotplug bookkeeping; a dead descriptor is
			// degradation, not a monotonicity violation. It never reads
			// again, so mark it read.
			if errors.Is(err, perfevent.ErrNoSuchDevice) {
				b.readMark = readMark{fd: we.FD, seq: k.Seq(we.FD)}
				continue
			}
			return base, fmt.Errorf("reading fd %d (cpu%d %s %v): %v", we.FD, we.CPU, we.TypeName, we.Kind, err)
		}
		if b.ok && b.fd == we.FD && count.Value < b.value {
			return base, fmt.Errorf("cpu%d %s %v counter decreased: %d -> %d",
				we.CPU, we.TypeName, we.Kind, b.value, count.Value)
		}
		*b = counterBaseline{readMark: readMark{fd: we.FD, seq: k.Seq(we.FD)}, value: count.Value, ok: true}
	}
	return base, nil
}

// energyConservation asserts the package energy counter equals the time
// integral of package power over the run, within float bookkeeping
// tolerance — energy cannot appear or vanish between the power model and
// the RAPL counter.
type energyConservation struct{}

func (energyConservation) Name() string { return "energy-conservation" }

func (i energyConservation) Check(c *Context) error { return i.verify(c) }
func (i energyConservation) Final(c *Context) error { return i.verify(c) }

func (energyConservation) verify(c *Context) error {
	got := c.Sim.Power.EnergyJ(power.DomainPkg) - c.StartEnergyJ
	want := c.PowerIntegralJ
	tol := 1e-6 * math.Max(1, math.Abs(want))
	if math.Abs(got-want) > tol {
		return fmt.Errorf("RAPL pkg energy %.9f J != ∫P·dt %.9f J (|Δ|=%.3g > tol %.3g)",
			got, want, math.Abs(got-want), tol)
	}
	return nil
}

// coreTypeIsolation asserts the paper's central hybrid semantic: an event
// programmed on one core type's PMU never counts work executed on another
// core type. The harness opens a foreign-PMU instruction counter on every
// CPU of a hybrid machine; all of them must stay at zero forever.
type coreTypeIsolation struct {
	// read holds one mark per Context.Foreign slot: Check re-reads only
	// the probes the kernel updated since, Final reads them all.
	read []readMark
}

func (coreTypeIsolation) Name() string { return "core-type-isolation" }

func (i *coreTypeIsolation) Check(c *Context) error { return i.verify(c, true) }
func (i *coreTypeIsolation) Final(c *Context) error { return i.verify(c, false) }

func (i *coreTypeIsolation) verify(c *Context, gated bool) error {
	k := c.Sim.Kernel
	for len(i.read) < len(c.Foreign) {
		i.read = append(i.read, readMark{})
	}
	for j := range c.Foreign {
		we, mark := &c.Foreign[j], &i.read[j]
		if we.Dead || gated && mark.unchanged(k, we.FD) {
			continue
		}
		count, err := k.Read(we.FD)
		if err != nil {
			if errors.Is(err, perfevent.ErrNoSuchDevice) {
				*mark = readMark{fd: we.FD, seq: k.Seq(we.FD)}
				continue // hotplugged away by a fault plan
			}
			return fmt.Errorf("reading foreign probe fd %d: %v", we.FD, err)
		}
		if count.Value != 0 {
			return fmt.Errorf("PMU of core type %q counted %d instructions on cpu%d (type %q)",
				we.TypeName, count.Value, we.CPU, c.Sim.HW.TypeOf(we.CPU).Name)
		}
		*mark = readMark{fd: we.FD, seq: k.Seq(we.FD)}
	}
	return nil
}

// schedAffinity asserts no process is ever placed on a CPU outside its
// affinity mask — the taskset contract every pinned experiment relies on.
type schedAffinity struct{}

func (schedAffinity) Name() string { return "sched-affinity" }

func (schedAffinity) Check(c *Context) error {
	for _, p := range c.Procs {
		if cpu := p.CPU(); cpu >= 0 && !p.Affinity().Has(cpu) {
			return fmt.Errorf("pid %d running on cpu%d outside affinity %v", p.PID, cpu, p.Affinity())
		}
	}
	return nil
}

func (schedAffinity) Final(*Context) error { return nil }

// freqEnvelope asserts every CPU's frequency stays inside its core type's
// [min, max] range and at or under the effective (thermal ∧ user) cap.
// Each tick's frequencies are chosen before the governor's end-of-tick
// update, so the comparison allows the looser of the current and
// previous-tick caps (the control loop's inherent one-tick lag), plus
// half an OPP step for quantization rounding.
//
// The CPU walk reads only the frequencies, the per-class bounds and each
// core type's min, max and OPP step, which are fixed after boot. So Check
// skips the walk while sim.Machine.FreqGen and both bounds are what they
// were at its last passing walk: the walk would pass again.
type freqEnvelope struct {
	prevCap [2]float64 // by hw.CoreClass; 0 = not yet observed
	// passed marks a last walk that passed, at frequency generation gen
	// with per-class bounds bound.
	passed bool
	gen    uint64
	bound  [2]float64
}

func (freqEnvelope) Name() string { return "freq-envelope" }

func (fe *freqEnvelope) Check(c *Context) error {
	var bound [2]float64
	for _, class := range []hw.CoreClass{hw.Performance, hw.Efficiency} {
		capNow := c.Sim.Governor.CapMHz(class)
		if fe.prevCap[class] == 0 {
			fe.prevCap[class] = capNow
		}
		bound[class] = math.Max(capNow, fe.prevCap[class])
		fe.prevCap[class] = capNow
	}
	gen := c.Sim.FreqGen()
	if fe.passed && gen == fe.gen && bound == fe.bound {
		return nil
	}
	fe.passed = false
	m := c.Sim.HW
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		t := m.TypeOf(cpu)
		f := c.Sim.CurFreqMHz(cpu)
		if f < t.MinFreqMHz-1e-9 || f > t.MaxFreqMHz+1e-9 {
			return fmt.Errorf("cpu%d at %.1f MHz outside [%g, %g]", cpu, f, t.MinFreqMHz, t.MaxFreqMHz)
		}
		cap := bound[t.Class]
		slack := t.FreqStepMHz/2 + 1e-9
		if cap > 0 && f > cap+slack {
			return fmt.Errorf("cpu%d at %.1f MHz above the %.1f MHz %s-class cap",
				cpu, f, cap, t.Class)
		}
	}
	fe.passed, fe.gen, fe.bound = true, gen, bound
	return nil
}

func (*freqEnvelope) Final(*Context) error { return nil }

// thermalBounds asserts the zone temperature stays physical: never below
// ambient, never above TjMax.
type thermalBounds struct{}

func (thermalBounds) Name() string { return "thermal-bounds" }

func (thermalBounds) Check(c *Context) error {
	spec := c.Sim.HW.Thermal
	t := c.Sim.Thermal.TempC()
	if t < spec.AmbientC-1e-6 {
		return fmt.Errorf("zone at %.3f C, below ambient %.3f C", t, spec.AmbientC)
	}
	if t > spec.TjMaxC+1e-6 {
		return fmt.Errorf("zone at %.3f C, above TjMax %.3f C", t, spec.TjMaxC)
	}
	return nil
}

func (thermalBounds) Final(*Context) error { return nil }

// powerSanity asserts the package power stays within the machine's
// physical range — at least the constant uncore draw, at most uncore plus
// every core's worst-case idle+dynamic power — and that the AC-side wall
// reading never drops below the package (a PSU cannot be a source).
type powerSanity struct {
	maxW float64 // lazily computed physical ceiling
}

func (powerSanity) Name() string { return "power-sanity" }

func (ps *powerSanity) Check(c *Context) error {
	m := c.Sim.HW
	if ps.maxW == 0 {
		ps.maxW = m.Power.UncoreWatts
		seen := map[int]bool{}
		for _, cpu := range m.CPUs {
			if seen[cpu.PhysCore] {
				continue
			}
			seen[cpu.PhysCore] = true
			t := m.TypeOf(cpu.ID)
			ps.maxW += t.IdleWatts + t.DynWattsAtMax
		}
	}
	pkg := c.Sim.Power.PkgPowerW()
	if pkg < m.Power.UncoreWatts-1e-9 {
		return fmt.Errorf("package power %.3f W below the %.3f W uncore floor", pkg, m.Power.UncoreWatts)
	}
	if pkg > ps.maxW+1e-9 {
		return fmt.Errorf("package power %.3f W above the %.3f W physical ceiling", pkg, ps.maxW)
	}
	if eff := m.Power.ACEfficiency; eff > 0 && eff <= 1 {
		if wall := c.Sim.Power.WallPowerW(); wall < pkg-1e-9 {
			return fmt.Errorf("wall power %.3f W below package power %.3f W", wall, pkg)
		}
	}
	return nil
}

func (*powerSanity) Final(*Context) error { return nil }

// readsMonotonic asserts the measurement probe never goes dark or
// backwards while the substrate degrades: every ReadValues/StopValues
// completes, and each event's reported Final value never decreases over
// the run — the core contract of the graceful-degradation ladder.
type readsMonotonic struct {
	prev []uint64
}

func (readsMonotonic) Name() string { return "reads-monotonic" }

func (m *readsMonotonic) Check(c *Context) error { return m.verify(c) }
func (m *readsMonotonic) Final(c *Context) error { return m.verify(c) }

func (m *readsMonotonic) verify(c *Context) error {
	if c.Measure == nil {
		return nil
	}
	if c.Measure.ReadErrs > 0 {
		return fmt.Errorf("measure probe failed %d read(s): a degraded eventset must keep answering", c.Measure.ReadErrs)
	}
	vals := c.Measure.LastValues
	if m.prev == nil && len(vals) > 0 {
		m.prev = make([]uint64, len(vals))
	}
	for i, v := range vals {
		if v.Final < m.prev[i] {
			return fmt.Errorf("measure event %d (%s) went backwards: %d -> %d",
				i, c.Measure.Names[i], m.prev[i], v.Final)
		}
		m.prev[i] = v.Final
	}
	return nil
}

// scaleBounded asserts every probe reading's scaled estimate stays inside
// its declared error bound: the count is reported as lying in
// [Raw, Scaled], so Raw <= Scaled, ErrorBound must equal the interval
// width, the extrapolation factor can never be below 1, the reported
// Final never undershoots the hardware-observed Raw, and a counter cannot
// have run longer than it was enabled.
type scaleBounded struct{}

func (scaleBounded) Name() string { return "scale-bounded" }

func (i scaleBounded) Check(c *Context) error { return i.verify(c) }
func (i scaleBounded) Final(c *Context) error { return i.verify(c) }

func (scaleBounded) verify(c *Context) error {
	if c.Measure == nil {
		return nil
	}
	for i, v := range c.Measure.LastValues {
		name := c.Measure.Names[i]
		if v.Raw > v.Scaled {
			return fmt.Errorf("measure event %d (%s): raw %d above scaled estimate %d", i, name, v.Raw, v.Scaled)
		}
		if v.ErrorBound != v.Scaled-v.Raw {
			return fmt.Errorf("measure event %d (%s): error bound %d != scaled-raw %d",
				i, name, v.ErrorBound, v.Scaled-v.Raw)
		}
		if v.ScaleFactor < 1 {
			return fmt.Errorf("measure event %d (%s): scale factor %g < 1", i, name, v.ScaleFactor)
		}
		if v.Final < v.Raw {
			return fmt.Errorf("measure event %d (%s): final %d below raw %d", i, name, v.Final, v.Raw)
		}
		if v.TimeRunning > v.TimeEnabled+1e-9 {
			return fmt.Errorf("measure event %d (%s): ran %.9fs but only enabled %.9fs",
				i, name, v.TimeRunning, v.TimeEnabled)
		}
	}
	return nil
}
