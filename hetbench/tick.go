package main

import (
	"fmt"
	"runtime"
	"time"

	"hetpapi/internal/events"
	"hetpapi/internal/scenario"
	"hetpapi/internal/sim"
)

// tickSplit divides every harnessed tick of scenario runs into four
// disjoint parts, using only public seams:
//
//   - a marker hook, registered with sim.Machine.AddStepHook between
//     scenario.Boot and scenario.RunOn, so it fires first at every tick
//     end, before the harness's own hook;
//   - Spec.Invariants set to timing wrappers of scenario.Standard();
//   - a timing StepHook appended last to Spec.StepHooks.
//
// The harness runs, per tick: the probe read (marker → first invariant,
// core.read), the audit (first → last invariant, scenario.audit), the
// other step hooks (last invariant → timing hook, scenario.hooks), then
// the control hook, the trace recorder and the next Step body (timing
// hook → next marker, sim.step). The four parts of a tick are
// differences of the same timestamps, so they sum exactly to the
// marker-to-marker interval (scenario.tick). A tick is committed only
// when the next marker closes it; the last tick of a run is dropped.
type tickSplit struct {
	clock func() int64 // monotonic ns

	// This tick's timestamps and pending parts.
	markT, cursor, auditT, hookT int64
	open, audited                bool
	pendRead, pendAudit, pendHks int64
	pendInv                      []int64
	busy                         bool

	// Committed totals.
	ticks, busyTicks                     int64
	readNs, auditNs, hooksNs, stepNs, ns int64
	invNs                                []int64
	tickUs                               []float32
}

func newTickSplit() *tickSplit {
	base := time.Now()
	return &tickSplit{
		clock:   func() int64 { return int64(time.Since(base)) },
		pendInv: make([]int64, len(invariantNames)),
		invNs:   make([]int64, len(invariantNames)),
	}
}

// attach instruments one run: it registers the marker on the booted
// machine and returns the spec with timed invariants and the timing hook.
// Call detach after RunOn returns.
func (t *tickSplit) attach(s *sim.Machine, spec scenario.Spec) (scenario.Spec, func()) {
	t.open = false
	remove := s.AddStepHook(func(m *sim.Machine) { t.marker(!m.Sched.Quiescent()) })
	std := scenario.Standard()
	spec.Invariants = make([]scenario.Invariant, len(std))
	for i, inv := range std {
		spec.Invariants[i] = &timedInvariant{Invariant: inv, split: t, idx: i}
	}
	spec.StepHooks = append(append([]scenario.StepHook(nil), spec.StepHooks...),
		func(*scenario.Context) { t.hook() })
	return spec, remove
}

// marker closes the previous tick (committing its parts) and opens the
// next; busy reports whether the scheduler had runnable work.
func (t *tickSplit) marker(busy bool) {
	now := t.clock()
	if t.open && t.audited {
		t.ticks++
		if t.busy {
			t.busyTicks++
		}
		t.readNs += t.pendRead
		t.auditNs += t.pendAudit
		t.hooksNs += t.pendHks
		t.stepNs += now - t.hookT
		t.ns += now - t.markT
		for i, v := range t.pendInv {
			t.invNs[i] += v
		}
		t.tickUs = append(t.tickUs, float32(now-t.markT)/1e3)
	}
	t.markT, t.cursor, t.busy = now, now, busy
	t.open, t.audited = true, false
	for i := range t.pendInv {
		t.pendInv[i] = 0
	}
}

// beforeInvariant runs at entry to each timed Check.
func (t *tickSplit) beforeInvariant() {
	if !t.audited {
		now := t.clock()
		t.pendRead = now - t.markT
		t.auditT, t.cursor = now, now
		t.audited = true
	}
}

// afterInvariant charges the time since the previous invariant ended (or
// the audit began) to invariant i.
func (t *tickSplit) afterInvariant(i int) {
	now := t.clock()
	t.pendInv[i] = now - t.cursor
	t.cursor = now
	t.pendAudit = now - t.auditT
}

// hook is the timing StepHook, registered after every other hook.
func (t *tickSplit) hook() {
	now := t.clock()
	t.pendHks = now - t.cursor
	t.hookT = now
}

// timedInvariant wraps one standard invariant; Name and Final pass
// through so violation reports are unchanged.
type timedInvariant struct {
	scenario.Invariant
	split *tickSplit
	idx   int
}

func (ti *timedInvariant) Check(c *scenario.Context) error {
	ti.split.beforeInvariant()
	err := ti.Invariant.Check(c)
	ti.split.afterInvariant(ti.idx)
	return err
}

// closes reports whether the committed parts sum exactly to the ticks.
func (t *tickSplit) closes() bool {
	return t.readNs+t.auditNs+t.hooksNs+t.stepNs == t.ns
}

// report records the per-tick layer metrics; allocs is the number of
// heap objects allocated over the split's runs.
func (t *tickSplit) report(b *bench, allocs uint64) {
	b.check(t.ticks > 0, "traced run committed no ticks")
	b.check(t.closes(), "tick parts do not sum to the tick: read %d + audit %d + hooks %d + step %d != %d ns",
		t.readNs, t.auditNs, t.hooksNs, t.stepNs, t.ns)
	if t.ticks == 0 {
		return
	}
	n := float64(t.ticks)
	us := make([]float64, len(t.tickUs))
	for i, v := range t.tickUs {
		us[i] = float64(v)
	}
	b.setPercentile("scenario.tick_us.p50", us, 50)
	b.set("scenario.tick_us.mean", float64(t.ns)/n/1e3)
	b.set("scenario.audit_us", float64(t.auditNs)/n/1e3)
	for i, name := range invariantNames {
		b.set("scenario.audit."+name+"_ns", float64(t.invNs[i])/n)
	}
	b.set("scenario.hooks_us", float64(t.hooksNs)/n/1e3)
	b.set("sim.step_us", float64(t.stepNs)/n/1e3)
	b.set("sim.busy_frac", float64(t.busyTicks)/n)
	b.set("core.read_us", float64(t.readNs)/n/1e3)
	b.set("scenario.allocs_per_tick", float64(allocs)/n)
	b.note("tick split: %d ticks, mean %.3f us = step %.3f + read %.3f + audit %.3f + hooks %.3f",
		t.ticks, float64(t.ns)/n/1e3, float64(t.stepNs)/n/1e3, float64(t.readNs)/n/1e3,
		float64(t.auditNs)/n/1e3, float64(t.hooksNs)/n/1e3)
}

// kernelDrive is the result of driving the kernel and the PAPI probe
// directly with a workload's open events.
type kernelDrive struct {
	execNs, readNs, coreAllocs float64
}

// driveKernel boots a throwaway copy of spec, runs it until atSec into
// the run (and until its probe, if any, is counting), then times
// Kernel.TaskExec on every busy CPU and Kernel.Read on every open
// system-wide counter, and counts the allocations of one probe read.
// The copy's counters are disturbed, so nothing from it is checked.
func driveKernel(spec scenario.Spec, atSec float64) (kernelDrive, error) {
	spec = spec.Clone()
	spec.Invariants = []scenario.Invariant{}
	var d kernelDrive
	done := false
	spec.Stop = func() bool { return done }
	spec.StepHooks = append(spec.StepHooks, func(c *scenario.Context) {
		if done || c.Sim.Now()-c.StartSec < atSec || (c.Measure != nil && !c.Measure.Started) {
			return
		}
		done = true
		d = measureKernel(c)
	})
	s, err := scenario.Boot(spec)
	if err != nil {
		return d, err
	}
	if _, err := scenario.RunOn(s, spec); err != nil {
		return d, err
	}
	if !done {
		return d, fmt.Errorf("kernel drive: %s never reached t=%gs with its probe counting", spec.Name, atSec)
	}
	return d, nil
}

func measureKernel(c *scenario.Context) kernelDrive {
	const reps = 2000
	var d kernelDrive
	k := c.Sim.Kernel
	var fds []int
	for _, we := range c.Wide {
		if !we.Dead {
			fds = append(fds, we.FD)
		}
	}
	if len(fds) > 0 {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, fd := range fds {
				_, _ = k.Read(fd) // cost only; the copy's values are discarded
			}
		}
		d.readNs = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(fds))
	}
	type slot struct{ pid, cpu int }
	var busy []slot
	for cpu := 0; cpu < c.Sim.HW.NumCPUs(); cpu++ {
		if p := c.Sim.Sched.RunningOn(cpu); p != nil {
			busy = append(busy, slot{p.PID, cpu})
		}
	}
	if len(busy) > 0 {
		st := events.Stats{Cycles: 3e6, RefCycles: 3e6, Instructions: 4e6, LLCRefs: 1e4, LLCMisses: 1e3}
		dt := c.Sim.Tick()
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, sl := range busy {
				k.TaskExec(sl.pid, sl.cpu, dt, st)
			}
		}
		d.execNs = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(busy))
	}
	if m := c.Measure; m != nil && m.Started {
		const reads = 200
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for r := 0; r < reads; r++ {
			_, _ = m.Set.ReadValues() // allocation count only
		}
		runtime.ReadMemStats(&m1)
		d.coreAllocs = float64(m1.Mallocs-m0.Mallocs) / reads
	}
	return d
}

func (d kernelDrive) report(b *bench) {
	b.set("perfevent.exec_ns", d.execNs)
	b.set("perfevent.read_ns", d.readNs)
	b.set("core.read_allocs", d.coreAllocs)
}
