// Package perfevent implements the Linux perf_event subsystem of the
// simulated machines, faithfully enough that the PAPI layer above it has to
// solve exactly the problems described in section IV of the paper:
//
//   - Each core type exports its own dynamic PMU type id; an event opened
//     with one PMU's type only counts while the task runs on cores of that
//     type (the kernel "tracks the core type and only enables event
//     counters if they match the core currently being run on").
//   - Event groups cannot mix PMU types: opening a sibling with a different
//     type than its leader fails with ErrInvalid, so measuring both core
//     types takes one group per PMU and at least one read per group.
//   - RAPL energy events belong to a separate "power" PMU and are only
//     valid CPU-wide, never attached to a task.
//   - When more events are enabled than the PMU has counters, groups are
//     time-multiplexed and reads report time_enabled/time_running for
//     scaling.
//   - The generic PERF_TYPE_HARDWARE ids work on hybrids via the extended
//     config encoding (PMU type in config bits 32+), like Linux >= 5.13.
//
// The simulation drives the kernel through two hooks: TaskExec (a task ran
// on a CPU for a slice, producing event quantities) and Advance (wall
// simulated time moved; services CPU-wide and RAPL events and rotates
// multiplexed groups).
package perfevent

import (
	"errors"
	"fmt"
	"time"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
	"hetpapi/internal/power"
	"hetpapi/internal/spantrace"
)

// Errors mirror the errno values perf_event_open reports.
var (
	// ErrInvalid corresponds to EINVAL: malformed attr, cross-PMU group,
	// oversized group, or invalid pid/cpu combination.
	ErrInvalid = errors.New("perfevent: invalid argument (EINVAL)")
	// ErrNoSuchDevice corresponds to ENODEV: the attr names a PMU type
	// that does not exist on this machine.
	ErrNoSuchDevice = errors.New("perfevent: no such device (ENODEV)")
	// ErrNotSupported corresponds to ENOENT: the PMU exists but does not
	// implement the requested event config.
	ErrNotSupported = errors.New("perfevent: event not supported (ENOENT)")
	// ErrBadFD corresponds to EBADF.
	ErrBadFD = errors.New("perfevent: bad file descriptor (EBADF)")
	// ErrNoSpace corresponds to ENOSPC: the PMU's schedulable counter
	// budget is exhausted (physically, or because other users of the PMU
	// hold counters).
	ErrNoSpace = errors.New("perfevent: no space on PMU (ENOSPC)")
	// ErrBusy corresponds to EBUSY: the requested counter is reserved
	// by another kernel user (the NMI watchdog pinning the fixed cycles
	// counter).
	ErrBusy = errors.New("perfevent: counter busy (EBUSY)")
)

// PerfTypeHardware is the static generic hardware event type
// (PERF_TYPE_HARDWARE).
const PerfTypeHardware uint32 = 0

// PerfTypeSoftware is the kernel software event type (PERF_TYPE_SOFTWARE):
// context switches, migrations, clocks and faults, counted by the kernel's
// scheduler hooks rather than PMU hardware.
const PerfTypeSoftware uint32 = 1

// HWConfigExtShift is the bit position of the extended PMU type inside a
// PERF_TYPE_HARDWARE config on hybrid systems (PERF_HW_EVENT_MASK).
const HWConfigExtShift = 32

// Attr mirrors the perf_event_attr fields the simulator honours.
type Attr struct {
	// Type is the PMU type id: PerfTypeHardware or a dynamic id from
	// /sys/devices/<pmu>/type.
	Type uint32
	// Config selects the event within the PMU (event code | umask<<8 for
	// core PMUs, the PERF_COUNT_HW_* id plus optional extended PMU type
	// for PerfTypeHardware).
	Config uint64
	// Disabled starts the event disabled; it must be enabled explicitly.
	Disabled bool
	// SamplePeriod, when nonzero, turns the event into a sampling event: an
	// overflow record is emitted every SamplePeriod increments (the
	// perf_event_open sample_period field). Only per-task hardware events
	// may sample, and the period must be at least MinSamplePeriod (the
	// simulator's analogue of the perf_event_max_sample_rate throttle).
	SamplePeriod uint64
	// ExcludeUser / ExcludeKernel are accepted but have no effect: the
	// simulation runs everything in one privilege domain.
	ExcludeUser   bool
	ExcludeKernel bool
}

// Count is one counter read: the raw value plus the time the event was
// enabled and actually running (for multiplex scaling).
type Count struct {
	Value       uint64
	TimeEnabled float64
	TimeRunning float64
}

// Scaled returns the multiplex-scaled estimate value*enabled/running.
func (c Count) Scaled() uint64 {
	if c.TimeRunning <= 0 {
		return 0
	}
	return uint64(float64(c.Value) * c.TimeEnabled / c.TimeRunning)
}

// Event is one open perf event. The fields TaskExec and Read touch every
// tick come first, so they share a cache line.
type Event struct {
	value       float64
	timeEnabled float64
	timeRunning float64
	// shadow is the simulator-only oracle counter: what a dedicated,
	// never-multiplexed counter would have counted (see ShadowValue).
	shadow float64
	scale  float64
	// seq is the update sequence Seq reports: 1 at Open, bumped by every
	// write to value or dead (see credit, zero and kill) and, for enabled
	// energy events, by every Advance.
	seq     uint64
	kind    events.Kind
	pmuType uint32
	enabled bool
	// dead marks a descriptor invalidated by its CPU going offline:
	// every further operation except Close returns ErrNoSuchDevice.
	dead bool
	// uncore caches whether pmuType is an uncore PMU, resolved at Open.
	uncore       bool
	samplePeriod uint64

	leader *Event
	// members is the event's group, itself first: the event and its
	// siblings while it leads one, just the event otherwise. Open and
	// Close keep it current so group walks (a credit plan's multiplexing
	// decision, ReadGroup) allocate nothing.
	members []*Event

	fd   int
	attr Attr
	pid  int
	cpu  int
	name string

	// energyBase is the RAPL accumulator snapshot at enable/reset time.
	energyBase float64

	// sampling state (samplePeriod sits with the hot fields)
	sampleAcc   float64
	samples     []Sample
	lostSamples uint64
	// drainRingCap is the ring capacity in effect at the previous
	// ReadSamples drain (0 = never drained); a change between drains
	// makes the next drain return a defensive copy.
	drainRingCap int

	// deadErr is the ErrNoSuchDevice error of a dead descriptor, built
	// on its first touch (see checkAlive).
	deadErr error
}

// FD returns the event's descriptor.
func (e *Event) FD() int { return e.fd }

// Kind returns the architectural quantity the event counts.
func (e *Event) Kind() events.Kind { return e.kind }

// PMUType returns the resolved dynamic PMU type the event schedules on.
func (e *Event) PMUType() uint32 { return e.pmuType }

// Name returns the canonical decoded event name.
func (e *Event) Name() string { return e.name }

// credit adds d to the event's count. It, zero and kill are the only
// writers of value and dead, and each bumps seq, so that Seq changes
// whenever a Read could.
func (e *Event) credit(d float64) {
	e.value += d
	e.seq++
}

// zero clears the event's count (PERF_EVENT_IOC_RESET).
func (e *Event) zero() {
	e.value = 0
	e.seq++
}

// kill invalidates the descriptor: its CPU went offline.
func (e *Event) kill() {
	e.dead = true
	e.seq++
}

// group returns the event and its siblings (leader first). The slice is
// the event's own; callers must not modify it.
func (e *Event) group() []*Event { return e.members }

// hwGroupSize returns how many hardware counters the group occupies
// (software members are free).
func (e *Event) hwGroupSize() int {
	n := 0
	for _, ev := range e.group() {
		if !ev.kind.Software() {
			n++
		}
	}
	return n
}

// Kernel is the perf_event subsystem of one machine.
type Kernel struct {
	m   *hw.Machine
	pwr *power.Model

	// fds is the descriptor table, indexed by fd. Descriptors are never
	// reused (nextFD only grows), so a closed fd leaves a nil hole and
	// nopen counts the live entries.
	fds    []*Event
	nopen  int
	nextFD int
	// byPid and byCPU (indexed by CPU) list enabled-or-not events by
	// target for the hot TaskExec path, in fd (open) order for
	// determinism.
	byPid  map[int][]*Event
	byCPU  [][]*Event
	energy []*Event
	uncore []*Event
	// lastCPU tracks each task's previous placement for migration counts.
	lastCPU  map[int]int
	now      float64
	muxTick  float64
	syscalls int
	// gen is the configuration generation: every change to an input of a
	// credit plan (see plan.go) bumps it. It starts at 1, so that a zero
	// plan is stale.
	gen uint64
	// plans holds one credit plan per CPU, allocated by the first
	// TaskExec. leaders and running are scheduledSet's scratch.
	plans            []creditPlan
	leaders, running []*Event

	// faults holds the injected fault state (see faults.go). Zero value
	// means no faults and changes nothing about kernel behavior.
	faults kernelFaults
	// tracer, when attached and enabled, records syscall and fault
	// instants (see trace.go). nil costs one pointer check per site.
	tracer    *spantrace.Recorder
	trkKernel int
	trkFaults int
	// OnHotplug, when set, observes every CPU hotplug transition; the
	// simulator uses it to forward hotplug to the scheduler.
	OnHotplug func(cpu int, online bool)
	// OnSampleContext, when set, supplies per-overflow attribution context
	// for sampling events: the workload phase executing and the CPU's
	// DVFS frequency at overflow time. The simulator installs it so every
	// Sample carries (core type, phase, frequency) — the enrichment a
	// real PERF_RECORD_SAMPLE gets from unwinding and side-band records.
	// It is consulted at most once per execution slice.
	OnSampleContext func(pid, cpu int) (phase string, freqMHz float64)
}

// NewKernel returns the subsystem for a machine.
func NewKernel(m *hw.Machine) *Kernel {
	return &Kernel{
		m:       m,
		byPid:   map[int][]*Event{},
		byCPU:   make([][]*Event, m.NumCPUs()),
		lastCPU: map[int]int{},
		nextFD:  3,
		muxTick: 0.004, // default multiplex rotation interval
		gen:     1,
	}
}

// AttachPower connects the RAPL energy source. Without it, opening energy
// events fails with ErrNoSuchDevice.
func (k *Kernel) AttachPower(p *power.Model) { k.pwr = p }

// SetMuxInterval changes the multiplex rotation period (the
// /sys/devices/<pmu>/perf_event_mux_interval_ms knob).
func (k *Kernel) SetMuxInterval(sec float64) {
	if sec > 0 {
		k.muxTick = sec
		k.gen++
	}
}

// Machine returns the machine this kernel manages.
func (k *Kernel) Machine() *hw.Machine { return k.m }

// Syscalls returns how many syscall-equivalent operations (open, ioctl,
// read, close) have been issued — the quantity behind the paper's
// measurement-overhead concern (section V.5).
func (k *Kernel) Syscalls() int { return k.syscalls }

// NumOpen returns the number of open events.
func (k *Kernel) NumOpen() int { return k.nopen }

// resolve maps an attr to (pmu type, kind, scale, name).
func (k *Kernel) resolve(attr Attr) (uint32, events.Kind, float64, string, error) {
	if attr.Type == PerfTypeHardware {
		ext := uint32(attr.Config >> HWConfigExtShift)
		hwID := attr.Config & 0xFFFFFFFF
		kind, scale := events.GenericKind(hwID)
		if kind == events.KindNone {
			return 0, 0, 0, "", fmt.Errorf("%w: unknown generic hardware event %d", ErrNotSupported, hwID)
		}
		var typ *hw.CoreType
		if ext == 0 {
			// Unextended generic event on a hybrid: the kernel resolves it
			// against the first (boot) CPU's PMU.
			typ = k.m.TypeOf(0)
		} else {
			typ = k.m.TypeByPerfType(ext)
			if typ == nil {
				return 0, 0, 0, "", fmt.Errorf("%w: extended type %d", ErrNoSuchDevice, ext)
			}
		}
		return typ.PMU.PerfType, kind, scale, events.GenericName(hwID), nil
	}
	if attr.Type == PerfTypeSoftware {
		tab := events.LookupPMU("perf")
		kind, scale, name, ok := tab.Decode(attr.Config)
		if !ok {
			return 0, 0, 0, "", fmt.Errorf("%w: software event %#x", ErrNotSupported, attr.Config)
		}
		return PerfTypeSoftware, kind, scale, name, nil
	}
	if u := k.m.UncoreByPerfType(attr.Type); u != nil {
		tab := events.LookupPMU(u.PfmName)
		if tab == nil {
			return 0, 0, 0, "", fmt.Errorf("%w: no event table for %s", ErrNoSuchDevice, u.PfmName)
		}
		kind, scale, name, ok := tab.Decode(attr.Config)
		if !ok {
			return 0, 0, 0, "", fmt.Errorf("%w: %s config %#x", ErrNotSupported, u.PfmName, attr.Config)
		}
		return attr.Type, kind, scale, name, nil
	}
	if k.m.Power.HasRAPL && attr.Type == k.m.Power.RAPLPerfType {
		p := events.LookupPMU("rapl")
		kind, scale, name, ok := p.Decode(attr.Config)
		if !ok {
			return 0, 0, 0, "", fmt.Errorf("%w: rapl config %#x", ErrNotSupported, attr.Config)
		}
		return attr.Type, kind, scale, name, nil
	}
	typ := k.m.TypeByPerfType(attr.Type)
	if typ == nil {
		return 0, 0, 0, "", fmt.Errorf("%w: pmu type %d", ErrNoSuchDevice, attr.Type)
	}
	p := events.LookupPMU(typ.PfmName)
	if p == nil {
		return 0, 0, 0, "", fmt.Errorf("%w: no event table for %s", ErrNoSuchDevice, typ.PfmName)
	}
	kind, scale, name, ok := p.Decode(attr.Config)
	if !ok {
		return 0, 0, 0, "", fmt.Errorf("%w: %s config %#x", ErrNotSupported, typ.PfmName, attr.Config)
	}
	return attr.Type, kind, scale, name, nil
}

// Open mirrors perf_event_open(attr, pid, cpu, group_fd, 0).
//
// pid >= 0 with cpu == -1 opens a per-task event that follows the task;
// pid == -1 with cpu >= 0 opens a CPU-wide event. Energy (RAPL) events are
// only valid CPU-wide. groupFD == -1 creates a new group leader; otherwise
// the event joins that group and must share its PMU type and target (any
// other negative groupFD is EBADF, as in the real syscall).
func (k *Kernel) Open(attr Attr, pid, cpu, groupFD int) (fd int, err error) {
	k.syscalls++
	if k.tracer.Enabled() {
		defer k.traceSys("open", time.Now(), &fd, &err)
	}
	k.pollFaults()
	if pid < 0 && cpu < 0 {
		return -1, fmt.Errorf("%w: pid and cpu both unset", ErrInvalid)
	}
	if pid >= 0 && cpu >= 0 {
		// Per-task-per-cpu events exist in real perf; unsupported here.
		return -1, fmt.Errorf("%w: per-task per-cpu events not supported", ErrInvalid)
	}
	if cpu >= k.m.NumCPUs() {
		return -1, fmt.Errorf("%w: cpu %d out of range", ErrInvalid, cpu)
	}
	if cpu >= 0 && !k.IsOnline(cpu) {
		return -1, fmt.Errorf("%w: cpu %d is offline", ErrNoSuchDevice, cpu)
	}
	pmuType, kind, scale, name, err := k.resolve(attr)
	if err != nil {
		return -1, err
	}
	if kind == events.KindCycles && k.cyclesBlocked(pmuType) {
		return -1, fmt.Errorf("%w: fixed cycles counter of pmu %d is held by the NMI watchdog",
			ErrBusy, pmuType)
	}
	if !kind.Software() && !kind.Energy() && k.m.TypeByPerfType(pmuType) != nil &&
		k.effectiveCapacity(pmuType) < 1 {
		return -1, fmt.Errorf("%w: pmu %d has no schedulable counters", ErrNoSpace, pmuType)
	}
	if kind.Energy() {
		if k.pwr == nil {
			return -1, fmt.Errorf("%w: no energy source attached", ErrNoSuchDevice)
		}
		if pid != -1 || cpu < 0 {
			return -1, fmt.Errorf("%w: RAPL events must be opened CPU-wide (pid=-1)", ErrInvalid)
		}
	}
	if k.m.UncoreByPerfType(attr.Type) != nil && (pid != -1 || cpu < 0) {
		return -1, fmt.Errorf("%w: uncore events must be opened CPU-wide (pid=-1)", ErrInvalid)
	}
	if kind.Software() && pid < 0 {
		return -1, fmt.Errorf("%w: software events are per-task in this kernel", ErrInvalid)
	}
	if kind.Software() && attr.SamplePeriod > 0 {
		return -1, fmt.Errorf("%w: sampling software events is not supported", ErrInvalid)
	}

	if attr.SamplePeriod > 0 && (pid < 0 || kind.Energy()) {
		return -1, fmt.Errorf("%w: sampling requires a per-task hardware event", ErrInvalid)
	}
	if attr.SamplePeriod > 0 && attr.SamplePeriod < MinSamplePeriod {
		// Mirrors the kernel's perf_event_max_sample_rate throttle: a
		// tiny period would emit one overflow record per handful of
		// counter increments and overwhelm the sampling path.
		return -1, fmt.Errorf("%w: sample period %d below minimum %d",
			ErrInvalid, attr.SamplePeriod, MinSamplePeriod)
	}

	e := &Event{
		seq:          1,
		attr:         attr,
		pid:          pid,
		cpu:          cpu,
		pmuType:      pmuType,
		kind:         kind,
		scale:        scale,
		name:         name,
		enabled:      !attr.Disabled,
		samplePeriod: attr.SamplePeriod,
		uncore:       k.m.UncoreByPerfType(pmuType) != nil,
	}
	e.members = []*Event{e}

	if groupFD != -1 {
		leader, err := k.lookup(groupFD)
		if err != nil {
			return -1, fmt.Errorf("%w: group fd %d", ErrBadFD, groupFD)
		}
		if leader.leader != nil {
			return -1, fmt.Errorf("%w: fd %d is not a group leader", ErrInvalid, groupFD)
		}
		if err := checkAlive(leader); err != nil {
			return -1, err
		}
		if leader.pid != pid || leader.cpu != cpu {
			return -1, fmt.Errorf("%w: group target mismatch", ErrInvalid)
		}
		if leader.pmuType != pmuType && !kind.Software() {
			// The core constraint of section IV.E: perf event groups
			// cannot contain events from different hardware PMUs. Software
			// events are exempt, as in the real kernel.
			return -1, fmt.Errorf("%w: cannot add PMU type %d event to PMU type %d group",
				ErrInvalid, pmuType, leader.pmuType)
		}
		if !kind.Software() {
			if cap := k.capacityOf(pmuType); leader.hwGroupSize()+1 > cap {
				return -1, fmt.Errorf("%w: group of %d events exceeds %d counters",
					ErrInvalid, leader.hwGroupSize()+1, cap)
			}
			if eff := k.effectiveCapacity(pmuType); leader.hwGroupSize()+1 > eff {
				// The group fits the physical inventory but not the
				// currently schedulable one: other users hold counters.
				return -1, fmt.Errorf("%w: group of %d events exceeds %d schedulable counters",
					ErrNoSpace, leader.hwGroupSize()+1, eff)
			}
		}
		e.leader = leader
		leader.members = append(leader.members, e)
	}

	if e.enabled {
		k.snapshotEnergy(e)
	}
	e.fd = k.nextFD
	k.nextFD++
	for len(k.fds) <= e.fd {
		k.fds = append(k.fds, nil)
	}
	k.fds[e.fd] = e
	k.nopen++
	if e.pid >= 0 {
		k.byPid[e.pid] = append(k.byPid[e.pid], e)
	} else {
		k.byCPU[e.cpu] = append(k.byCPU[e.cpu], e)
	}
	if e.kind.Energy() {
		k.energy = append(k.energy, e)
	}
	if e.uncore {
		k.uncore = append(k.uncore, e)
	}
	k.gen++
	return e.fd, nil
}

// capacityOf returns the simultaneous counter capacity of a PMU type.
func (k *Kernel) capacityOf(pmuType uint32) int {
	if t := k.m.TypeByPerfType(pmuType); t != nil {
		return t.PMU.NumGP + t.PMU.NumFixed
	}
	return 8 // RAPL and friends: effectively free-running counters
}

func (k *Kernel) snapshotEnergy(e *Event) {
	if e.kind.Energy() && k.pwr != nil {
		e.energyBase = k.energyValue(e.kind)
	}
}

func (k *Kernel) energyValue(kind events.Kind) float64 {
	unit := k.m.Power.EnergyUnitJ
	if unit <= 0 {
		unit = 1
	}
	var j float64
	switch kind {
	case events.KindEnergyPkg:
		j = k.pwr.EnergyJ(power.DomainPkg)
	case events.KindEnergyCores:
		j = k.pwr.EnergyJ(power.DomainCores)
	case events.KindEnergyRAM:
		j = k.pwr.EnergyJ(power.DomainRAM)
	case events.KindEnergyPsys:
		j = k.pwr.EnergyJ(power.DomainPsys)
	}
	return j / unit
}

// lookup returns the event for fd: ErrBadFD for negative, never-opened,
// closed and past-the-end descriptors alike.
func (k *Kernel) lookup(fd int) (*Event, error) {
	if fd < 0 || fd >= len(k.fds) || k.fds[fd] == nil {
		return nil, fmt.Errorf("%w: fd %d", ErrBadFD, fd)
	}
	return k.fds[fd], nil
}

// Enable starts counting (PERF_EVENT_IOC_ENABLE). Enabling a group leader
// enables its whole group, which is how callers start groups atomically.
func (k *Kernel) Enable(fd int) (err error) {
	k.syscalls++
	if k.tracer.Enabled() {
		defer k.traceSys("enable", time.Now(), &fd, &err)
	}
	k.pollFaults()
	e, err := k.lookup(fd)
	if err != nil {
		return err
	}
	if err := checkAlive(e); err != nil {
		return err
	}
	for _, ev := range e.group() {
		if !ev.enabled {
			ev.enabled = true
			k.snapshotEnergy(ev)
		}
	}
	k.gen++
	return nil
}

// Disable stops counting (PERF_EVENT_IOC_DISABLE), group-wide for leaders.
func (k *Kernel) Disable(fd int) (err error) {
	k.syscalls++
	if k.tracer.Enabled() {
		defer k.traceSys("disable", time.Now(), &fd, &err)
	}
	k.pollFaults()
	e, err := k.lookup(fd)
	if err != nil {
		return err
	}
	if err := checkAlive(e); err != nil {
		return err
	}
	k.serviceEnergy(e)
	for _, ev := range e.group() {
		ev.enabled = false
	}
	k.gen++
	return nil
}

// Reset zeroes the counter value (PERF_EVENT_IOC_RESET), group-wide for
// leaders. Times are not reset, matching the real ioctl.
func (k *Kernel) Reset(fd int) (err error) {
	k.syscalls++
	if k.tracer.Enabled() {
		defer k.traceSys("reset", time.Now(), &fd, &err)
	}
	k.pollFaults()
	e, err := k.lookup(fd)
	if err != nil {
		return err
	}
	if err := checkAlive(e); err != nil {
		return err
	}
	for _, ev := range e.group() {
		ev.zero()
		k.snapshotEnergy(ev)
	}
	return nil
}

// Read returns the event's count.
func (k *Kernel) Read(fd int) (c Count, err error) {
	k.syscalls++
	if k.tracer.Enabled() {
		defer k.traceSys("read", time.Now(), &fd, &err)
	}
	k.pollFaults()
	e, err := k.lookup(fd)
	if err != nil {
		return Count{}, err
	}
	if err := checkAlive(e); err != nil {
		return Count{}, err
	}
	k.serviceEnergy(e)
	return Count{Value: uint64(e.value), TimeEnabled: e.timeEnabled, TimeRunning: e.timeRunning}, nil
}

// Seq returns fd's update sequence, which changes whenever the value or
// the error a Read of fd returns could change. It is 1 at Open and is
// bumped by every count write (TaskExec credits, the SchedIn/SchedOut
// software counts, the RAPL fold), by Reset and by the hotplug kill. An
// enabled energy event is also bumped on every Advance, because its
// value follows the power model, which the simulator steps before each
// Advance. Seq is 0 for a fd that is not open; fds are never reused, so
// an (fd, Seq) pair names one state of one descriptor.
//
// Seq covers Read's value and error, not TimeEnabled/TimeRunning, which
// move on every tick an event is enabled. Read polls the fault plan
// first, so the guarantee has a precondition: with no fault transition
// due at the kernel clock, two equal nonzero Seq values mean the same
// Read value and error. Advance applies every transition due at the new
// time, so the precondition holds until the next Advance unless a plan
// is attached in between; the simulator's step hooks run in that window.
//
// Seq is not a syscall: it counts none, polls no faults and traces
// nothing, like a reader checking perf_event_mmap_page's lock word.
func (k *Kernel) Seq(fd int) uint64 {
	if fd < 0 || fd >= len(k.fds) || k.fds[fd] == nil {
		return 0
	}
	return k.fds[fd].seq
}

// ReadUser reads a counter through the rdpmc fast path: no syscall is
// accounted. Like the real mechanism it only works for per-task hardware
// events (CPU-wide and energy events have no user-mappable counter page).
func (k *Kernel) ReadUser(fd int) (Count, error) {
	e, err := k.lookup(fd)
	if err != nil {
		return Count{}, err
	}
	if err := checkAlive(e); err != nil {
		return Count{}, err
	}
	if e.pid < 0 || e.kind.Energy() {
		return Count{}, fmt.Errorf("%w: rdpmc requires a per-task hardware event", ErrInvalid)
	}
	return Count{Value: uint64(e.value), TimeEnabled: e.timeEnabled, TimeRunning: e.timeRunning}, nil
}

// ReadGroup returns the counts of a leader and all its siblings in one
// operation (PERF_FORMAT_GROUP): one syscall for the whole group.
func (k *Kernel) ReadGroup(fd int) ([]Count, error) { return k.ReadGroupInto(fd, nil) }

// ReadGroupInto is ReadGroup into caller scratch: it writes the group's
// counts (leader first) from dst[0] on and returns them, allocating only
// when dst has less capacity than the group has members. On error it
// returns dst[:0].
func (k *Kernel) ReadGroupInto(fd int, dst []Count) (out []Count, err error) {
	k.syscalls++
	if k.tracer.Enabled() {
		defer k.traceSys("read-group", time.Now(), &fd, &err)
	}
	k.pollFaults()
	out = dst[:0]
	e, err := k.lookup(fd)
	if err != nil {
		return out, err
	}
	if err := checkAlive(e); err != nil {
		return out, err
	}
	if e.leader != nil {
		return out, fmt.Errorf("%w: fd %d is not a group leader", ErrInvalid, fd)
	}
	if cap(out) < len(e.group()) {
		out = make([]Count, 0, len(e.group()))
	}
	for _, ev := range e.group() {
		k.serviceEnergy(ev)
		out = append(out, Count{Value: uint64(ev.value), TimeEnabled: ev.timeEnabled, TimeRunning: ev.timeRunning})
	}
	return out, nil
}

// Close releases the event. Closing a leader promotes no one: siblings
// keep counting individually (mirroring the kernel's behaviour closely
// enough for our callers, which always close whole groups).
func (k *Kernel) Close(fd int) (err error) {
	k.syscalls++
	if k.tracer.Enabled() {
		defer k.traceSys("close", time.Now(), &fd, &err)
	}
	k.pollFaults()
	e, err := k.lookup(fd)
	if err != nil {
		return err
	}
	if e.leader != nil {
		e.leader.members = removeEvent(e.leader.members, e)
	} else {
		for _, s := range e.members[1:] {
			s.leader = nil
		}
		e.members = e.members[:1]
	}
	if e.pid >= 0 {
		k.byPid[e.pid] = removeEvent(k.byPid[e.pid], e)
		if len(k.byPid[e.pid]) == 0 {
			delete(k.byPid, e.pid)
		}
	} else {
		k.byCPU[e.cpu] = removeEvent(k.byCPU[e.cpu], e)
	}
	if e.kind.Energy() {
		k.energy = removeEvent(k.energy, e)
	}
	if e.uncore {
		k.uncore = removeEvent(k.uncore, e)
	}
	k.fds[fd] = nil
	k.nopen--
	k.gen++
	return nil
}

func removeEvent(list []*Event, e *Event) []*Event {
	out := list[:0]
	for _, x := range list {
		if x != e {
			out = append(out, x)
		}
	}
	return out
}

// serviceEnergy folds the RAPL accumulator into an energy event's value.
func (k *Kernel) serviceEnergy(e *Event) {
	if !e.kind.Energy() || k.pwr == nil || !e.enabled || e.dead {
		return
	}
	cur := k.energyValue(e.kind)
	e.credit(cur - e.energyBase)
	e.energyBase = cur
}

// TaskExec reports that task pid executed on cpu for dt seconds producing
// the given quantities. The kernel credits every enabled event attached to
// the task (or CPU-wide on that cpu) whose PMU matches the core's PMU type
// and which holds a counter under the current multiplex rotation. Which
// events those are, and what happens to each, comes from the CPU's credit
// plan (see plan.go), rebuilt only when one of its inputs changed.
func (k *Kernel) TaskExec(pid, cpu int, dt float64, st events.Stats) {
	// Uncore events are package-scope: they see memory traffic from every
	// core, whichever CPU they were nominally opened on.
	for _, e := range k.uncore {
		if e.enabled && !e.dead {
			e.credit(e.scale * events.ValueOf(&st, e.kind))
		}
	}
	for _, pe := range k.plan(pid, cpu).entries {
		e := pe.e
		e.timeEnabled += dt
		switch pe.op {
		case opForeign:
			// Wrong core type: the counter stays scheduled out. Time
			// enabled accrues (the task is running), running does not.
		case opSoftware:
			e.timeRunning += dt
			switch e.kind {
			case events.KindSWCpuClock, events.KindSWTaskClock:
				e.credit(dt * 1e9)
			case events.KindSWPageFaults:
				// Minor faults scale with the first-touch footprint; model
				// them as a small fraction of memory activity.
				e.credit((st.Loads + st.Stores) * 2e-6)
			}
		default:
			delta := e.scale * events.ValueOf(&st, e.kind)
			// The shadow oracle counts as if the event held a dedicated
			// counter, unaffected by rotation or watchdog reservations.
			e.shadow += delta
			if pe.op == opMuxedOut {
				continue // multiplexed out this rotation window
			}
			e.timeRunning += dt
			e.credit(delta)
			if e.samplePeriod != 0 {
				k.maybeSample(e, pid, cpu, delta)
			}
		}
	}
}

// SchedIn implements the scheduler hook: pid starts running on cpu. It
// credits CPU-migration software events when the placement changed.
func (k *Kernel) SchedIn(pid, cpu int, now float64) {
	last, seen := k.lastCPU[pid]
	k.lastCPU[pid] = cpu
	if !seen || last == cpu {
		return
	}
	for _, e := range k.byPid[pid] {
		if e.enabled && e.kind == events.KindSWCpuMigrations {
			e.credit(1)
		}
	}
}

// SchedOut implements the scheduler hook: pid stops running on cpu. It
// credits context-switch software events (nr_switches counts switch-outs).
func (k *Kernel) SchedOut(pid, cpu int, now float64) {
	for _, e := range k.byPid[pid] {
		if e.enabled && e.kind == events.KindSWContextSwitches {
			e.credit(1)
		}
	}
}

// Advance moves the kernel clock (multiplex rotation reference) and
// services CPU-wide energy events' enabled time.
func (k *Kernel) Advance(now float64) {
	dt := now - k.now
	if dt < 0 {
		dt = 0
	}
	k.now = now
	k.pollFaults()
	for _, e := range k.energy {
		if !e.enabled || e.dead {
			continue
		}
		e.timeEnabled += dt
		e.timeRunning += dt
		// The power model moves between clock advances, so the next
		// fold (and with it Read) may return a new value.
		e.seq++
	}
	for _, e := range k.uncore {
		if !e.enabled || e.dead {
			continue
		}
		e.timeEnabled += dt
		e.timeRunning += dt
	}
}

// Now returns the kernel's notion of simulated time.
func (k *Kernel) Now() float64 { return k.now }
