package core

import (
	"fmt"
	"sort"
	"strings"

	"hetpapi/internal/perfevent"
	"hetpapi/internal/pfmlib"
)

// state of an EventSet.
const (
	stateStopped = iota
	stateRunning
)

// entry is one added event (native or preset) and its expansion.
type entry struct {
	display string
	preset  bool
	partial bool
	natives []pfmlib.EventInfo
	// signs holds +1/-1 per native for derived-subtract presets
	// (PAPI_L3_TCH = accesses - misses); nil means all positive.
	signs []float64
	// first is the index in EventSet.slots of natives[0]; native i is
	// slots[first+i]. Valid while the set's descriptors are open.
	first        int
	samplePeriod uint64
}

func (e *entry) signOf(i int) float64 {
	if e.signs == nil || i >= len(e.signs) {
		return 1
	}
	return e.signs[i]
}

// EventSet is PAPI's abstraction for a set of events measured together.
//
// With heterogeneous support (the paper's section IV.E), one EventSet may
// hold events from several perf PMUs: internally the events are split into
// one perf event group per PMU type, and Start/Stop/Read/Reset walk all
// the groups. In legacy mode adding a second PMU's event fails with
// ErrConflict, exactly like unpatched PAPI.
type EventSet struct {
	lib *Library
	id  int

	pid     int
	entries []entry
	state   int

	multiplex bool

	// slots holds one entry per open native event, in add order; groups
	// lists the perf event groups over them in open order. Both are nil
	// until the first Start and again after Cleanup.
	slots  []slot
	groups []group
	// counts is ReadGroupInto scratch, reused across groups and reads.
	counts []perfevent.Count

	startedAt float64

	// deg is the graceful-degradation state (see degrade.go).
	deg degrade
}

// slot is one open native event: its live descriptor plus the read and
// degradation state kept for it across reads. A hotplug rebuild gives the
// slot a new fd; everything else about the native stays in place.
type slot struct {
	fd int
	// entry indexes EventSet.entries: the slot is that entry's native
	// number (slot index - entry.first).
	entry int
	// hw marks a native counted on hardware core counters (isHWNative).
	hw bool
	// count is the latest read of fd: scratch, valid only within one read.
	count perfevent.Count
	// carry is the count accumulated by predecessors of fd that hotplug
	// killed.
	carry float64
	// lastValue is fd's value at the last successful read, plain or
	// degradation-aware (0 before the first, and after Reset or a
	// rebuild): the count a rebuild carries forward.
	lastValue uint64
	// lastTimes snapshots fd's times at the last such read; seen says
	// whether there is a snapshot to compare against.
	lastTimes perfevent.Count
	seen      bool
	// stale marks a counter that froze while enabled; the mark is sticky
	// until the counter runs again, so back-to-back reads of a frozen
	// counter stay flagged.
	stale bool
}

// group is one perf event group of a running set.
type group struct {
	pmuType uint32
	// slots indexes EventSet.slots in open order, leader first.
	slots []int
}

// leaderFD returns the descriptor of group g's leader.
func (es *EventSet) leaderFD(g group) int { return es.slots[g.slots[0]].fd }

// CreateEventSet returns an empty, unattached EventSet.
func (l *Library) CreateEventSet() *EventSet {
	l.sets++
	return &EventSet{lib: l, id: l.sets, pid: -1}
}

// ID returns the EventSet's identifier.
func (es *EventSet) ID() int { return es.id }

// Attach binds the EventSet to a process (PAPI_attach). Must be called
// before Start unless the set holds only CPU-wide (energy) events.
func (es *EventSet) Attach(pid int) error {
	if es.state == stateRunning {
		return ErrIsRunning
	}
	if pid < 0 {
		return fmt.Errorf("%w: bad pid %d", ErrInvalid, pid)
	}
	es.pid = pid
	return nil
}

// SetMultiplex enables multiplexing for the set: every event becomes its
// own perf event group, letting more events run than hardware counters
// exist at the cost of time-slicing accuracy.
func (es *EventSet) SetMultiplex() error {
	if es.state == stateRunning {
		return ErrIsRunning
	}
	es.multiplex = true
	return nil
}

// Names returns the display names of the added events, in add order.
func (es *EventSet) Names() []string {
	var out []string
	for _, e := range es.entries {
		out = append(out, e.display)
	}
	return out
}

// NumEvents returns the number of added (user-visible) events.
func (es *EventSet) NumEvents() int { return len(es.entries) }

// NumNative returns the number of underlying native perf events.
func (es *EventSet) NumNative() int {
	n := 0
	for _, e := range es.entries {
		n += len(e.natives)
	}
	return n
}

// AddNamed adds a native event by its libpfm4-style name. Unqualified
// names are searched in the default PMUs — all core PMUs when patched,
// only the hard-coded first one in legacy mode.
func (es *EventSet) AddNamed(name string) error {
	if es.state == stateRunning {
		return ErrIsRunning
	}
	info, err := es.resolve(name)
	if err != nil {
		return err
	}
	if err := es.checkLegacy([]pfmlib.EventInfo{info}); err != nil {
		return err
	}
	es.entries = append(es.entries, entry{display: info.FullName, natives: []pfmlib.EventInfo{info}})
	return nil
}

func (es *EventSet) resolve(name string) (pfmlib.EventInfo, error) {
	if es.lib.legacy && !strings.Contains(name, "::") {
		// Legacy: unqualified names only match the single default PMU.
		name = es.lib.defaultPMUs()[0] + "::" + name
	}
	info, err := es.lib.pfm.ParseEvent(name)
	if err != nil {
		return pfmlib.EventInfo{}, fmt.Errorf("%w: %v", ErrNoEvent, err)
	}
	return info, nil
}

// AddPreset adds a preset event. On hybrid machines (patched mode) the
// preset expands to one native event per core PMU and Read reports their
// sum; legacy mode resolves only the default PMU's native event.
func (es *EventSet) AddPreset(p Preset) error {
	if es.state == stateRunning {
		return ErrIsRunning
	}
	info := es.lib.QueryPreset(p)
	if !info.Available {
		return fmt.Errorf("%w: preset %s has no native mapping on this machine", ErrNoEvent, p)
	}
	var natives []pfmlib.EventInfo
	var signs []float64
	for _, spec := range info.Natives {
		sign := 1.0
		if strings.HasPrefix(spec, "-") {
			sign = -1
			spec = spec[1:]
		}
		ev, err := es.lib.pfm.ParseEvent(spec)
		if err != nil {
			return fmt.Errorf("%w: preset %s expansion %q: %v", ErrNoEvent, p, spec, err)
		}
		natives = append(natives, ev)
		signs = append(signs, sign)
	}
	if err := es.checkLegacy(natives); err != nil {
		return err
	}
	es.entries = append(es.entries, entry{
		display: string(p),
		preset:  true,
		partial: info.Partial,
		natives: natives,
		signs:   signs,
	})
	return nil
}

// checkLegacy enforces the PAPI 7.1 single-PMU-per-EventSet restriction:
// an EventSet can hold events of exactly one perf PMU type, so hybrid core
// pairs, RAPL and uncore each need their own EventSet (and their own
// components — the situation sections IV.E and V.3 remove).
func (es *EventSet) checkLegacy(more []pfmlib.EventInfo) error {
	if !es.lib.legacy {
		return nil
	}
	types := map[uint32]bool{}
	add := func(n pfmlib.EventInfo) {
		if n.PMU == "perf" {
			return // software events mixed fine even in PAPI 7.1
		}
		types[n.Attr.Type] = true
	}
	for _, e := range es.entries {
		for _, n := range e.natives {
			add(n)
		}
	}
	for _, n := range more {
		add(n)
	}
	if len(types) > 1 {
		return fmt.Errorf("%w: PAPI 7.1 eventsets cannot span perf PMU types", ErrConflict)
	}
	return nil
}

// components returns the distinct PAPI components the set's natives
// belong to ("cpu", "rapl", "uncore"), sorted.
func (es *EventSet) components() []string {
	seen := map[string]bool{}
	for _, e := range es.entries {
		for _, n := range e.natives {
			seen[es.lib.componentOf(n.PMU)] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func (es *EventSet) usesComponent(name string) bool {
	for _, c := range es.components() {
		if c == name {
			return true
		}
	}
	return false
}

// componentKeys returns the activation keys the set occupies while
// running: per-task components are scoped to the attached pid, CPU-wide
// ones (rapl, uncore) are global.
func (es *EventSet) componentKeys() []componentKey {
	var out []componentKey
	for _, c := range es.components() {
		pid := -1
		if c == "cpu" {
			pid = es.pid
		}
		out = append(out, componentKey{component: c, pid: pid})
	}
	return out
}

// startOnce opens the perf events and begins counting: one attempt of
// Start (degrade.go), with no retry or fallback logic.
//
// This is where the multi-PMU machinery lives: the natives are partitioned
// by perf PMU type, each partition becomes one perf event group (or one
// group per event under multiplexing), and every group is enabled. Only
// one EventSet may be running per component at a time.
func (es *EventSet) startOnce() error {
	if es.state == stateRunning {
		return ErrIsRunning
	}
	if len(es.entries) == 0 {
		return fmt.Errorf("%w: empty eventset", ErrInvalid)
	}
	if es.usesComponent("cpu") && es.pid < 0 {
		return fmt.Errorf("%w: eventset not attached to a process", ErrInvalid)
	}
	keys := es.componentKeys()
	for _, k := range keys {
		if other := es.lib.active[k]; other != nil {
			return fmt.Errorf("%w: eventset %d already running on the %s component",
				ErrConflict, other.id, k.component)
		}
	}

	k := es.lib.sys.Kernel
	n := es.NumNative()
	es.slots = make([]slot, 0, n)
	es.groups = make([]group, 0, n)
	// Track the group per PMU type while opening in add order.
	groupOf := map[uint32]int{}

	fail := func(err error) error {
		_ = es.closeGroups()
		return err
	}

	for i := range es.entries {
		e := &es.entries[i]
		e.first = len(es.slots)
		for _, n := range e.natives {
			attr := n.Attr
			attr.Disabled = true
			attr.SamplePeriod = e.samplePeriod
			pid, cpuTarget := es.pid, -1
			cpuWide := es.lib.cpuWide(n.PMU)
			if cpuWide {
				pid, cpuTarget = -1, 0
			}
			groupable := !es.muxActive() && !cpuWide && n.PMU != "perf"
			gi, joined := groupOf[attr.Type]
			joined = joined && groupable
			groupFD := -1
			if joined {
				groupFD = es.leaderFD(es.groups[gi])
			}
			fd, err := k.Open(attr, pid, cpuTarget, groupFD)
			if err != nil {
				return fail(fmt.Errorf("core: opening %s: %w", n.FullName, err))
			}
			si := len(es.slots)
			es.slots = append(es.slots, slot{fd: fd, entry: i, hw: es.isHWNative(n.PMU)})
			if joined {
				es.groups[gi].slots = append(es.groups[gi].slots, si)
			} else {
				if groupable {
					groupOf[attr.Type] = len(es.groups)
				}
				es.groups = append(es.groups, group{pmuType: attr.Type, slots: []int{si}})
			}
		}
	}

	// Enable all groups. Real PAPI does one ioctl per group leader — on a
	// hybrid machine that is one per core type, the extra start overhead
	// section V.5 worries about.
	for _, g := range es.groups {
		if err := k.Enable(es.leaderFD(g)); err != nil {
			return fail(err)
		}
	}
	es.state = stateRunning
	es.startedAt = es.lib.sys.Now()
	for _, k := range keys {
		es.lib.active[k] = es
	}
	return nil
}

// Running reports whether the set is counting.
func (es *EventSet) Running() bool { return es.state == stateRunning }

// NumGroups returns the number of perf event groups backing the running
// set (one per PMU type, or one per event when multiplexed).
func (es *EventSet) NumGroups() int { return len(es.groups) }

// GroupPMUTypes returns the distinct perf PMU types of the running
// groups, sorted.
func (es *EventSet) GroupPMUTypes() []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, g := range es.groups {
		if !seen[g.pmuType] {
			seen[g.pmuType] = true
			out = append(out, g.pmuType)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Read returns the current counts in add order (PAPI_read). Preset entries
// report the sum of their native expansions; multiplexed reads are scaled
// by time-enabled/time-running.
func (es *EventSet) Read() ([]uint64, error) {
	if es.state != stateRunning {
		return nil, ErrNotRunning
	}
	return es.collect(false)
}

// ReadFast reads through the rdpmc user-space fast path where possible,
// avoiding syscall-equivalent reads for per-task hardware events (the
// "fast rdpmc counter support" of section V.5). Energy events fall back to
// normal reads.
func (es *EventSet) ReadFast() ([]uint64, error) {
	if es.state != stateRunning {
		return nil, ErrNotRunning
	}
	return es.collect(true)
}

func (es *EventSet) collect(fast bool) ([]uint64, error) {
	var err error
	if fast {
		err = es.readUser()
	} else {
		err = es.readAll()
	}
	if err != nil {
		return nil, err
	}
	scaling := es.muxActive()
	out := make([]uint64, 0, len(es.entries))
	for i := range es.entries {
		sum, scaled := es.sums(&es.entries[i], scaling)
		if scaling {
			sum = scaled
		}
		if sum < 0 {
			sum = 0 // derived subtraction can transiently undershoot
		}
		out = append(out, uint64(sum))
	}
	for i := range es.slots {
		es.slots[i].lastValue = es.slots[i].count.Value
	}
	return out, nil
}

// sums returns entry e's signed raw and, when scaling, time-scaled
// totals over its natives' latest counts, each native's carry included.
// Without scaling the two are equal.
func (es *EventSet) sums(e *entry, scaling bool) (raw, scaled float64) {
	for i := range e.natives {
		sl := &es.slots[e.first+i]
		r := float64(sl.count.Value) + sl.carry
		sc := r
		if scaling {
			sc = float64(sl.count.Scaled()) + sl.carry
		}
		sign := e.signOf(i)
		raw += sign * r
		scaled += sign * sc
	}
	return raw, scaled
}

// readAll reads every group into its slots' count scratch: one read
// syscall per group (PERF_FORMAT_GROUP), the best case the paper
// describes — "at least two or more relatively high-latency read
// syscalls" on a hybrid machine.
func (es *EventSet) readAll() error {
	k := es.lib.sys.Kernel
	for _, g := range es.groups {
		got, err := k.ReadGroupInto(es.leaderFD(g), es.counts)
		es.counts = got
		if err != nil {
			return err
		}
		for i, si := range g.slots {
			es.slots[si].count = got[i]
		}
	}
	return nil
}

// readUser reads every slot through the rdpmc fast path, falling back to
// a read syscall where there is no user-mappable counter page.
func (es *EventSet) readUser() error {
	k := es.lib.sys.Kernel
	for i := range es.slots {
		sl := &es.slots[i]
		c, err := k.ReadUser(sl.fd)
		if err != nil {
			c, err = k.Read(sl.fd) // energy events: no rdpmc page
			if err != nil {
				return err
			}
		}
		sl.count = c
	}
	return nil
}

// Stop stops counting and returns the final values (PAPI_stop).
func (es *EventSet) Stop() ([]uint64, error) {
	if es.state != stateRunning {
		return nil, ErrNotRunning
	}
	vals, err := es.collect(false)
	if err != nil {
		return nil, err
	}
	k := es.lib.sys.Kernel
	for _, g := range es.groups {
		if err := k.Disable(es.leaderFD(g)); err != nil {
			return nil, err
		}
	}
	es.state = stateStopped
	for _, k := range es.componentKeys() {
		if es.lib.active[k] == es {
			delete(es.lib.active, k)
		}
	}
	es.traceStopInstant()
	return vals, nil
}

// Reset zeroes all counters (PAPI_reset), running or stopped.
func (es *EventSet) Reset() error {
	if es.groups == nil {
		return nil // nothing open yet
	}
	k := es.lib.sys.Kernel
	for _, g := range es.groups {
		if err := k.Reset(es.leaderFD(g)); err != nil {
			return err
		}
	}
	// Zeroed counters invalidate the monotonic floors, carries and
	// count snapshots (times are not reset by the ioctl, so the stale
	// snapshots stay).
	for i := range es.deg.lastFinal {
		es.deg.lastFinal[i] = 0
	}
	for i := range es.slots {
		es.slots[i].carry = 0
		es.slots[i].lastValue = 0
	}
	return nil
}

// Cleanup closes the perf descriptors; the set must be stopped
// (PAPI_cleanup_eventset). Events stay added and the set can be started
// again.
func (es *EventSet) Cleanup() error {
	if es.state == stateRunning {
		return ErrIsRunning
	}
	return es.closeGroups()
}

// closeGroups closes every open descriptor, group by group in open order
// and siblings before their leader, then forgets the slots. It returns
// the first Close error.
func (es *EventSet) closeGroups() error {
	k := es.lib.sys.Kernel
	var firstErr error
	for _, g := range es.groups {
		for i := len(g.slots) - 1; i >= 0; i-- {
			if err := k.Close(es.slots[g.slots[i]].fd); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	es.slots, es.groups = nil, nil
	return firstErr
}

// ElapsedSec returns the simulated seconds since Start (0 when stopped).
func (es *EventSet) ElapsedSec() float64 {
	if es.state != stateRunning {
		return 0
	}
	return es.lib.sys.Now() - es.startedAt
}
