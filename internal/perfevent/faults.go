package perfevent

// Fault-injection state of the simulated kernel. All of it defaults to
// "no faults": a kernel with no attached plan and no explicitly set
// fault state behaves byte-identically to one built before this layer
// existed. Faults arrive through two equivalent doors — an attached
// faults.Plan that the kernel polls at every syscall-shaped boundary
// and on every clock advance, or the direct setters the scenario
// harness's injections call — and both converge on the same internal
// state consulted by Open, Read and the counter scheduler.

import (
	"fmt"
	"sort"

	"hetpapi/internal/events"
	"hetpapi/internal/faults"
	"hetpapi/internal/spantrace"
)

// kernelFaults is the live fault state of one kernel.
type kernelFaults struct {
	plan     *faults.Plan
	watchdog map[uint32]bool // pmu type -> watchdog holds a counter
	offline  map[int]bool    // cpu -> offline
	budget   map[uint32]int  // pmu type -> schedulable counter cap (0/absent = physical)
	ringCap  int             // sampling ring cap override (0 = default)
}

// AttachFaults attaches a fault plan. The kernel polls it on every
// syscall and every Advance, applying due transitions in schedule
// order. Pass nil to detach. The plan's trace (faults.Plan.Trace)
// records exactly which transitions were applied and when.
func (k *Kernel) AttachFaults(p *faults.Plan) { k.faults.plan = p }

// pollFaults applies every plan transition due at the kernel's current
// clock. Called at each syscall-shaped boundary and from Advance.
func (k *Kernel) pollFaults() {
	if k.faults.plan == nil {
		return
	}
	for _, ev := range k.faults.plan.Pending(k.now) {
		k.applyFault(ev)
	}
}

func (k *Kernel) applyFault(ev faults.Event) {
	if k.tracer.Enabled() {
		k.traceFault("fault.plan", ev.TraceArgs()...)
	}
	switch ev.Kind {
	case faults.KindWatchdogHold:
		k.SetWatchdog(ev.PMU, true)
	case faults.KindWatchdogRelease:
		k.SetWatchdog(ev.PMU, false)
	case faults.KindHotplugOff:
		k.SetCPUOnline(ev.CPU, false)
	case faults.KindHotplugOn:
		k.SetCPUOnline(ev.CPU, true)
	case faults.KindRingCap:
		k.SetSampleRingCap(ev.Cap)
	case faults.KindCounterBudget:
		k.SetCounterBudget(ev.PMU, ev.Cap)
	}
}

// SetWatchdog reserves (held=true) or returns (held=false) one counter
// of the PMU for the NMI watchdog. On PMUs with a fixed cycles counter
// the watchdog pins that counter: new cycles events fail to open with
// ErrBusy and open groups containing a cycles event are descheduled
// until release. On PMUs without one it consumes a general-purpose
// counter, shrinking the schedulable capacity by one.
func (k *Kernel) SetWatchdog(pmuType uint32, held bool) {
	if k.faults.watchdog == nil {
		k.faults.watchdog = map[uint32]bool{}
	}
	changed := k.faults.watchdog[pmuType] != held
	if held {
		k.faults.watchdog[pmuType] = true
	} else {
		delete(k.faults.watchdog, pmuType)
	}
	k.gen++
	if changed && k.tracer.Enabled() {
		name := "fault.watchdog-hold"
		if !held {
			name = "fault.watchdog-release"
		}
		k.traceFault(name, spantrace.Int("pmu", int(pmuType)))
	}
}

// WatchdogHeld reports whether the watchdog holds a counter on the PMU.
func (k *Kernel) WatchdogHeld(pmuType uint32) bool { return k.faults.watchdog[pmuType] }

// SetCounterBudget caps the number of simultaneously schedulable
// hardware counters of the PMU below its physical inventory, modeling
// counters held by other users of the PMU. Cap 0 restores the physical
// inventory. Groups larger than the budget fail to open with
// ErrNoSpace; open events multiplex within the reduced capacity.
func (k *Kernel) SetCounterBudget(pmuType uint32, cap int) {
	if k.faults.budget == nil {
		k.faults.budget = map[uint32]int{}
	}
	old := k.faults.budget[pmuType]
	if cap <= 0 {
		cap = 0
		delete(k.faults.budget, pmuType)
	} else {
		k.faults.budget[pmuType] = cap
	}
	k.gen++
	if old != cap && k.tracer.Enabled() {
		k.traceFault("fault.counter-budget",
			spantrace.Int("pmu", int(pmuType)), spantrace.Int("cap", cap))
	}
}

// SetSampleRingCap caps every event's sampling ring buffer at n
// records; overflow records beyond the cap are dropped and counted as
// lost. n <= 0 restores the default capacity.
func (k *Kernel) SetSampleRingCap(n int) {
	if n < 0 {
		n = 0
	}
	if n != k.faults.ringCap && k.tracer.Enabled() {
		k.traceFault("fault.ring-cap", spantrace.Int("cap", n))
	}
	k.faults.ringCap = n
}

// SetCPUOnline changes a CPU's hotplug state. Taking a CPU offline
// permanently invalidates every CPU-wide event opened on it — further
// operations on those descriptors return ErrNoSuchDevice, matching the
// kernel's behavior when a perf event's CPU vanishes — and new opens
// on the CPU fail. Bringing the CPU back online allows new opens; dead
// descriptors stay dead and must be reopened by their owners. The
// OnHotplug callback (if set) observes every state change, which is
// how the simulator forwards hotplug to the scheduler.
func (k *Kernel) SetCPUOnline(cpu int, online bool) {
	if cpu < 0 || cpu >= k.m.NumCPUs() {
		return
	}
	if k.faults.offline == nil {
		k.faults.offline = map[int]bool{}
	}
	was := !k.faults.offline[cpu]
	if was == online {
		return
	}
	k.gen++
	dead := 0
	if online {
		delete(k.faults.offline, cpu)
	} else {
		k.faults.offline[cpu] = true
		for _, e := range k.byCPU[cpu] {
			e.kill()
			dead++
		}
	}
	if k.tracer.Enabled() {
		name := "fault.hotplug-on"
		if !online {
			name = "fault.hotplug-off"
		}
		k.traceFault(name, spantrace.Int("cpu", cpu), spantrace.Int("dead_fds", dead))
	}
	if k.OnHotplug != nil {
		k.OnHotplug(cpu, online)
	}
}

// IsOnline reports whether the CPU is online.
func (k *Kernel) IsOnline(cpu int) bool {
	return cpu >= 0 && cpu < k.m.NumCPUs() && !k.faults.offline[cpu]
}

// OnlineCPUs returns the online logical CPU ids, ascending.
func (k *Kernel) OnlineCPUs() []int {
	var out []int
	for cpu := 0; cpu < k.m.NumCPUs(); cpu++ {
		if !k.faults.offline[cpu] {
			out = append(out, cpu)
		}
	}
	sort.Ints(out)
	return out
}

// fixedCycles reports whether the PMU's fixed-counter inventory
// includes the cycles counter (the one the NMI watchdog pins).
func (k *Kernel) fixedCycles(pmuType uint32) bool {
	t := k.m.TypeByPerfType(pmuType)
	return t != nil && t.PMU.HasFixed("cycles")
}

// cyclesBlocked reports whether cycles events of the PMU are currently
// unschedulable because the watchdog pins the fixed cycles counter.
func (k *Kernel) cyclesBlocked(pmuType uint32) bool {
	return k.faults.watchdog[pmuType] && k.fixedCycles(pmuType)
}

// groupHasCycles reports whether the leader's group contains a cycles
// event (groups schedule all-or-nothing, so one pinned counter stalls
// the whole group).
func groupHasCycles(leader *Event) bool {
	for _, e := range leader.group() {
		if e.kind == events.KindCycles {
			return true
		}
	}
	return false
}

// effectiveCapacity returns the PMU's schedulable counter capacity
// after fault state: the physical inventory, capped by any counter
// budget, minus the general-purpose counter a watchdog reservation
// consumes on PMUs without a fixed cycles counter.
func (k *Kernel) effectiveCapacity(pmuType uint32) int {
	cap := k.capacityOf(pmuType)
	if b, ok := k.faults.budget[pmuType]; ok && b < cap {
		cap = b
	}
	if k.faults.watchdog[pmuType] && !k.fixedCycles(pmuType) {
		cap--
	}
	if cap < 0 {
		cap = 0
	}
	return cap
}

// checkAlive returns ErrNoSuchDevice for descriptors invalidated by
// CPU hotplug. A dead descriptor never revives, so its error is built
// on the first touch and returned as is after that: audits that keep
// reading a dead fd every tick allocate nothing.
func checkAlive(e *Event) error {
	if e.dead {
		return e.deadError()
	}
	return nil
}

// deadError builds and caches a dead descriptor's error. It is kept out
// of checkAlive so that every live read inlines to one flag test.
func (e *Event) deadError() error {
	if e.deadErr == nil {
		e.deadErr = fmt.Errorf("%w: fd %d was invalidated by cpu%d going offline", ErrNoSuchDevice, e.fd, e.cpu)
	}
	return e.deadErr
}

// ShadowValue returns the count a dedicated, never-multiplexed counter
// would hold for the event: the simulation credits it whenever the
// event's PMU matches the executing core and the event is enabled,
// ignoring counter capacity, watchdog reservations and rotation. It is
// a simulator-only oracle — real kernels cannot offer it — used by
// conformance and property tests to bound the error of
// time_enabled/time_running scaled estimates.
func (k *Kernel) ShadowValue(fd int) (float64, error) {
	e, err := k.lookup(fd)
	if err != nil {
		return 0, err
	}
	return e.shadow, nil
}
