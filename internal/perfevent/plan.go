package perfevent

// Credit plans. Linux settles which events a task's execution touches
// when the task is scheduled in and at each multiplex rotation; after
// that the PMU counts by itself. The simulated kernel does the same: a
// CPU's credit plan lists the events one TaskExec touches, in fd order,
// and what it does to each. TaskExec walks the cached list and rebuilds
// it only when one of its inputs changed:
//
//   - the configuration generation Kernel.gen, which covers the open
//     events, their enabled and dead flags and their groups, and the
//     watchdog and counter-budget state: a successful Open, Close,
//     Enable or Disable bumps it, and so do SetWatchdog,
//     SetCounterBudget, SetCPUOnline (on a state change) and
//     SetMuxInterval;
//   - the task running on the CPU;
//   - for a contended PMU, whose groups rotate, the multiplex window.
//
// Everything else a plan decides from is fixed at Open (kind, PMU type,
// uncore) or by the machine (the CPU's core type). Reset, the sampling
// ring cap, SchedIn/SchedOut and Advance change no plan input.

// planOp is what TaskExec does to one event of a credit plan. Every op
// accrues enabled time.
type planOp uint8

const (
	// opForeign: the event's PMU is not the CPU's; enabled time only.
	opForeign planOp = iota
	// opSoftware: a software event; running time and the clock or
	// page-fault credit.
	opSoftware
	// opMuxedOut: own PMU, but multiplexed out; the shadow only.
	opMuxedOut
	// opCount: own PMU and holding a counter; the shadow, running time,
	// the credit and the overflow samples.
	opCount
)

// planEntry is one event of a credit plan.
type planEntry struct {
	e  *Event
	op planOp
}

// creditPlan is what one TaskExec of task pid on a CPU does. It is valid
// while gen and pid match and, if it rotates, while the multiplex window
// equals window. An uncontended plan never expires by time.
type creditPlan struct {
	gen      uint64
	pid      int
	rotating bool
	window   int
	entries  []planEntry
}

// window returns the current multiplex rotation window.
func (k *Kernel) window() int { return int(k.now / k.muxTick) }

// plan returns the CPU's credit plan for task pid, rebuilding it when it
// is stale.
func (k *Kernel) plan(pid, cpu int) *creditPlan {
	if k.plans == nil {
		k.plans = make([]creditPlan, k.m.NumCPUs())
	}
	p := &k.plans[cpu]
	if p.gen != k.gen || p.pid != pid || p.rotating && p.window != k.window() {
		k.buildPlan(p, pid, cpu)
	}
	return p
}

// buildPlan lists the enabled events targeting pid (per-task) or cpu
// (CPU-wide), in fd order, with the op TaskExec applies to each. Energy
// and uncore events get no entry: Advance and TaskExec's uncore loop
// service them.
func (k *Kernel) buildPlan(p *creditPlan, pid, cpu int) {
	pmuType := k.m.TypeOf(cpu).PMU.PerfType
	p.gen, p.pid = k.gen, pid
	p.entries = p.entries[:0]
	for _, e := range k.byPid[pid] {
		if e.enabled {
			p.entries = appendEntry(p.entries, e, pmuType)
		}
	}
	for _, e := range k.byCPU[cpu] {
		if e.enabled && !e.dead {
			p.entries = appendEntry(p.entries, e, pmuType)
		}
	}
	p.rotating = k.scheduledSet(p.entries, pmuType)
	if p.rotating {
		p.window = k.window()
	}
}

// appendEntry appends e's entry for a CPU whose PMU is pmuType, counting
// if it is an own-PMU hardware event; scheduledSet then demotes the ones
// multiplexed out.
func appendEntry(entries []planEntry, e *Event, pmuType uint32) []planEntry {
	switch {
	case e.kind.Energy() || e.uncore:
		return entries
	case e.kind.Software():
		return append(entries, planEntry{e, opSoftware})
	case e.pmuType != pmuType:
		return append(entries, planEntry{e, opForeign})
	}
	return append(entries, planEntry{e, opCount})
}

// scheduledSet applies counter-capacity multiplexing to a plan's counting
// entries: when their groups need more counters than the PMU can schedule,
// or the watchdog stalls a group with a cycles event, the groups that do
// not get counters this rotation window become opMuxedOut. Groups are
// rotated through the available counters each mux interval. It reports
// whether the answer depends on the window. It allocates nothing once
// the kernel's scratch has grown to the number of groups.
func (k *Kernel) scheduledSet(entries []planEntry, pmuType uint32) (rotating bool) {
	blocked := k.cyclesBlocked(pmuType)
	demand, stalled := 0, false
	leaders := k.leaders[:0]
	for _, pe := range entries {
		e := pe.e
		if pe.op != opCount || e.leader != nil {
			continue
		}
		if blocked && groupHasCycles(e) {
			// The watchdog pins the fixed cycles counter; groups
			// schedule all-or-nothing, so any group containing a
			// cycles event stalls (time_running stops accruing).
			stalled = true
			continue
		}
		demand += e.hwGroupSize()
		leaders = append(leaders, e)
	}
	k.leaders = leaders
	cap := k.effectiveCapacity(pmuType)
	if demand <= cap && !stalled {
		return false
	}
	// The groups that hold counters: all of them when only the watchdog
	// stalls some, otherwise the greedy fit starting from the group the
	// current mux window rotates to.
	running := leaders
	if demand > cap {
		rotating = true
		running = k.running[:0]
		n, window := len(leaders), k.window()
		used := 0
		for i := 0; i < n; i++ {
			l := leaders[(window+i)%n]
			need := l.hwGroupSize()
			if used+need > cap {
				continue // greedy: skip groups that no longer fit
			}
			used += need
			running = append(running, l)
		}
		k.running = running
	}
	for i, pe := range entries {
		if pe.op != opCount {
			continue
		}
		// An event holds a counter when its group does.
		root := pe.e
		if root.leader != nil {
			root = root.leader
		}
		if !holds(running, root) {
			entries[i].op = opMuxedOut
		}
	}
	return rotating
}

// holds reports whether l is one of leaders.
func holds(leaders []*Event, l *Event) bool {
	for _, x := range leaders {
		if x == l {
			return true
		}
	}
	return false
}
