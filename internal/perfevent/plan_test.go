package perfevent

// Credit plans, fuzzed: three kernels run the same operations (seqRun's
// byte code, shared with FuzzKernelSeq). One caches its credit plans, one
// rebuilds every plan before each TaskExec, and one runs the TaskExec
// that worked the plan out on every call, kept below verbatim (renamed)
// as the reference. After every operation, everything a caller can
// observe of every descriptor ever opened must be equal on all three.

import (
	"math/rand"
	"testing"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
)

// rebuiltTaskExec is TaskExec with every credit plan marked stale first,
// so that the call rebuilds its plan.
func rebuiltTaskExec(k *Kernel, pid, cpu int, dt float64, st events.Stats) {
	for i := range k.plans {
		k.plans[i].gen = 0
	}
	k.TaskExec(pid, cpu, dt, st)
}

// refTaskExec reports that task pid executed on cpu for dt seconds producing
// the given quantities. The kernel credits every enabled event attached to
// the task (or CPU-wide on that cpu) whose PMU matches the core's PMU type
// and which holds a counter under the current multiplex rotation.
func (k *Kernel) refTaskExec(pid, cpu int, dt float64, st events.Stats) {
	coreType := k.m.TypeOf(cpu)
	// Uncore events are package-scope: they see memory traffic from every
	// core, whichever CPU they were nominally opened on.
	for _, e := range k.uncore {
		if e.enabled && !e.dead {
			e.credit(e.scale * events.ValueOf(&st, e.kind))
		}
	}
	matched := k.refEventsFor(pid, cpu)
	if len(matched) == 0 {
		return
	}
	// Partition into groups per PMU type and apply multiplexing.
	running := k.refScheduledSet(matched, coreType.PMU.PerfType)
	for _, e := range matched {
		if e.kind.Energy() || e.uncore {
			continue
		}
		e.timeEnabled += dt
		if e.kind.Software() {
			e.timeRunning += dt
			switch e.kind {
			case events.KindSWCpuClock, events.KindSWTaskClock:
				e.credit(dt * 1e9)
			case events.KindSWPageFaults:
				// Minor faults scale with the first-touch footprint; model
				// them as a small fraction of memory activity.
				e.credit((st.Loads + st.Stores) * 2e-6)
			}
			continue
		}
		if e.pmuType != coreType.PMU.PerfType {
			// Wrong core type: the counter stays scheduled out. Time
			// enabled accrues (the task is running), running does not.
			continue
		}
		delta := e.scale * events.ValueOf(&st, e.kind)
		// The shadow oracle counts as if the event held a dedicated
		// counter, unaffected by rotation or watchdog reservations.
		e.shadow += delta
		if running != nil && !running[e] {
			continue // multiplexed out this rotation window
		}
		e.timeRunning += dt
		e.credit(delta)
		k.maybeSample(e, pid, cpu, delta)
	}
}

// refEventsFor collects enabled events targeting pid (per-task) or cpu
// (CPU-wide), in fd order.
func (k *Kernel) refEventsFor(pid, cpu int) []*Event {
	var out []*Event
	for _, e := range k.byPid[pid] {
		if e.enabled {
			out = append(out, e)
		}
	}
	for _, e := range k.byCPU[cpu] {
		if e.enabled && !e.dead {
			out = append(out, e)
		}
	}
	return out
}

// refScheduledSet applies counter-capacity multiplexing: groups of the given
// PMU type are rotated through the available counters each mux interval.
// A nil result means every eligible event is scheduled.
func (k *Kernel) refScheduledSet(evs []*Event, pmuType uint32) map[*Event]bool {
	demand := 0
	stalled := false
	blocked := k.cyclesBlocked(pmuType)
	for _, e := range evs {
		if e.pmuType != pmuType || e.kind.Energy() || e.kind.Software() {
			continue
		}
		if e.leader == nil {
			if blocked && groupHasCycles(e) {
				// The watchdog pins the fixed cycles counter; groups
				// schedule all-or-nothing, so any group containing a
				// cycles event stalls (time_running stops accruing).
				stalled = true
				continue
			}
			demand += e.hwGroupSize()
		}
	}
	cap := k.effectiveCapacity(pmuType)
	if demand <= cap && !stalled {
		return nil
	}
	var leaders []*Event
	for _, e := range evs {
		if e.pmuType != pmuType || e.kind.Energy() || e.kind.Software() {
			continue
		}
		if e.leader == nil && !(blocked && groupHasCycles(e)) {
			leaders = append(leaders, e)
		}
	}
	running := map[*Event]bool{}
	if demand <= cap {
		for _, l := range leaders {
			for _, e := range l.group() {
				running[e] = true
			}
		}
		return running
	}
	// Rotate the starting group by the current mux window.
	window := 0
	if k.muxTick > 0 {
		window = int(k.now / k.muxTick)
	}
	n := len(leaders)
	used := 0
	for i := 0; i < n; i++ {
		l := leaders[(window+i)%n]
		need := l.hwGroupSize()
		if used+need > cap {
			continue // greedy: skip groups that no longer fit
		}
		used += need
		for _, e := range l.group() {
			running[e] = true
		}
	}
	return running
}

// fdView is everything a caller can observe of one descriptor.
type fdView struct {
	seq        uint64
	count      Count
	readErr    string
	shadow     float64
	shadowErr  string
	samples    []Sample
	lost       uint64
	samplesErr string
}

// view reads fd the way a caller would: Read, ShadowValue and a
// ReadSamples drain.
func view(k *Kernel, fd int) fdView {
	var v fdView
	var err error
	v.count, err = k.Read(fd)
	v.readErr = errText(err)
	v.shadow, err = k.ShadowValue(fd)
	v.shadowErr = errText(err)
	v.samples, v.lost, err = k.ReadSamples(fd)
	v.samplesErr = errText(err)
	v.seq = k.Seq(fd)
	return v
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (v fdView) equal(w fdView) bool {
	if v.seq != w.seq || v.count != w.count || v.readErr != w.readErr ||
		v.shadow != w.shadow || v.shadowErr != w.shadowErr ||
		v.lost != w.lost || v.samplesErr != w.samplesErr || len(v.samples) != len(w.samples) {
		return false
	}
	for i := range v.samples {
		if v.samples[i] != w.samples[i] {
			return false
		}
	}
	return true
}

// maxPlanOps bounds one input: after every operation three kernels view
// every descriptor opened so far, so the cost grows with the square of
// it, and the engine minimizes each new input by running it many times.
const maxPlanOps = 384

func runPlanOps(t *testing.T, m *hw.Machine, ops []byte) {
	if len(ops) > maxPlanOps {
		ops = ops[:maxPlanOps]
	}
	cached := newSeqRun(t, m, ops)
	twins := []struct {
		name string
		r    *seqRun
	}{
		{"with plans rebuilt every TaskExec", newSeqRun(t, m, ops)},
		{"with the reference TaskExec", newSeqRun(t, m, ops)},
	}
	twins[0].r.taskExec = rebuiltTaskExec
	twins[1].r.taskExec = (*Kernel).refTaskExec
	for n := 0; len(cached.ops) > 0; n++ {
		cached.step()
		for _, tw := range twins {
			tw.r.step()
		}
		for _, tw := range twins {
			r := tw.r
			if len(cached.ops) != len(r.ops) || len(cached.fds) != len(r.fds) {
				t.Fatalf("%s op %d: the kernel %s diverged: %d vs %d bytes left, %d vs %d fds",
					m.Name, n, tw.name, len(cached.ops), len(r.ops), len(cached.fds), len(r.fds))
			}
			if a, b := cached.k.Syscalls(), r.k.Syscalls(); a != b {
				t.Fatalf("%s op %d: %d syscalls with cached plans, %d %s", m.Name, n, a, b, tw.name)
			}
		}
		for i, fd := range cached.fds {
			got := view(cached.k, fd)
			for _, tw := range twins {
				if tw.r.fds[i] != fd {
					t.Fatalf("%s op %d: fd %d opened as %d %s", m.Name, n, fd, tw.r.fds[i], tw.name)
				}
				if want := view(tw.r.k, fd); !got.equal(want) {
					t.Fatalf("%s op %d (t=%g): fd %d with cached plans\n  %+v\n%s\n  %+v",
						m.Name, n, cached.k.Now(), fd, got, tw.name, want)
				}
			}
		}
	}
}

// rotatingPlanOps is a contended case on the first core type's PMU: five
// per-task events of pid 100 (one of them sampling) and a two-event group
// under a counter budget of 2, run on cpu0 over many 4 ms multiplex
// windows, then under a watchdog that stalls the cycles group, a one-record
// sampling ring and a 2 ms multiplex interval.
func rotatingPlanOps() []byte {
	var ops []byte
	exec := func(windows int) {
		for i := 0; i < windows; i++ {
			ops = append(ops,
				12, 200, 0, 0, 5, 5, 5, // TaskExec pid 100 on cpu0, scale 200
				17, 3, 50, // Advance 4 ms
			)
		}
		ops = append(ops, 19) // check
	}
	for cfg := byte(0); cfg < 4; cfg++ {
		ops = append(ops, 0, 0, cfg, 1, 1, 0) // per-task, enabled, counting
	}
	ops = append(ops,
		0, 0, 1, 1, 0, 0, 0, // per-task instructions sampling every 1e6
		3, 0, 0, 4, 1, 1, // a branches sibling in fd 3's group
		16, 0, 1, 2, // counter budget 2
	)
	exec(10)
	ops = append(ops, 16, 0, 0, 0) // watchdog holds the cycles counter
	exec(5)
	ops = append(ops, 20, 1, 21, 1) // ring cap 1, mux interval 2 ms
	exec(8)
	ops = append(ops, 16, 0, 0, 1, 16, 0, 1, 0) // watchdog released, budget lifted
	exec(3)
	if len(ops) > maxPlanOps {
		panic("rotatingPlanOps is longer than FuzzKernelPlan reads")
	}
	return ops
}

// planInputOps changes each input of cpu0's credit plan for pid 100
// between two of its TaskExecs, in one multiplex window, so that a stale
// plan shows up in the next view: an Open, a Disable and an Enable, a
// counter budget that makes the PMU contended, a Close that frees its
// counters, a watchdog hold that stalls the cycles group and its
// release, and a hotplug that kills a CPU-wide event.
func planInputOps() []byte {
	exec := []byte{12, 100, 0, 0, 1, 1, 1} // TaskExec pid 100 on cpu0, scale 100
	var ops []byte
	step := func(op ...byte) { ops = append(append(ops, op...), exec...) }
	step(0, 0, 1, 1, 1, 0)              // fd 3: per-task instructions of pid 100
	step(1, 0, 0, 1, 1)                 // fd 4: CPU-wide cycles on cpu0
	step(8, 0)                          // Disable fd 3
	step(7, 0)                          // Enable fd 3
	ops = append(ops, 0, 0, 0, 1, 1, 0) // fd 5: per-task cycles of pid 100
	step(3, 2, 0, 4, 1, 1)              // fd 6: a branches sibling of fd 5
	step(16, 0, 1, 3)                   // counter budget 3: fd 3 and fd 5's group hold counters, fd 4 waits
	step(10, 0)                         // Close fd 3: fd 4 fits too
	step(16, 0, 0, 0)                   // watchdog holds the cycles counter: fd 4 and fd 5's group stall
	step(16, 0, 0, 1)                   // watchdog released
	step(15, 0, 0)                      // cpu0 offline: fd 4 dies
	step(15, 0, 1)                      // cpu0 online
	return append(ops, 19)
}

// TestRotatingPlanSeedRotates keeps FuzzKernelPlan's contended seed
// honest: on both machines some descriptor must have counted for part of
// its enabled time only, after several multiplex windows.
func TestRotatingPlanSeedRotates(t *testing.T) {
	for _, m := range []*hw.Machine{hw.RaptorLake(), hw.Homogeneous()} {
		r := newSeqRun(t, m, rotatingPlanOps())
		rotated := false
		for len(r.ops) > 0 {
			r.step()
			if p := r.k.plans; p != nil && p[0].rotating {
				rotated = true
			}
		}
		if !rotated {
			t.Errorf("%s: cpu0's plan never rotated", m.Name)
		}
		partial := 0
		for _, fd := range r.fds {
			if c, err := r.k.Read(fd); err == nil && c.TimeRunning > 0 && c.TimeRunning < c.TimeEnabled {
				partial++
			}
		}
		if partial < 2 {
			t.Errorf("%s: %d of %d descriptors multiplexed, want at least 2", m.Name, partial, len(r.fds))
		}
	}
}

// FuzzKernelPlan runs each input's operations (see FuzzKernelSeq) on a
// hybrid and on a homogeneous kernel three times in lockstep: with cached
// credit plans, with every plan rebuilt before each TaskExec, and with the
// reference TaskExec. It requires equal Read values, times and errors,
// shadow values, samples, lost counts and Seq for every descriptor after
// every operation.
func FuzzKernelPlan(f *testing.F) {
	// Short random seeds keep the engine's minimization of new inputs
	// quick; every execution views every descriptor after every operation.
	for seed := int64(1); seed <= 16; seed++ {
		ops := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Add(rotatingPlanOps())
	f.Add(planInputOps())
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, m := range []*hw.Machine{hw.RaptorLake(), hw.Homogeneous()} {
			runPlanOps(t, m, ops)
		}
	})
}
