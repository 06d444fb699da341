// Package sim is the machine simulator: it wires the hardware
// description, the scheduler, the workloads, the DVFS governor, the
// power and thermal models, the perf_event kernel and the synthetic
// sysfs tree into a single stepped system.
//
// Time advances in fixed ticks (1 ms by default) and every observable
// boundary — StepHooks, monitoring samples, scheduler decisions — sits on
// a tick. On a busy tick (some task placed, ready or unreaped) the
// simulator does the full per-CPU work:
//
//  1. lets the scheduler update task placement,
//  2. runs each placed task on its CPU at the governor's frequency,
//  3. feeds the produced event quantities to the perf_event kernel,
//  4. converts per-core activity into package power, integrates RAPL
//     energy and the thermal zone, and
//  5. gives the governor its power/thermal feedback.
//
// On an idle tick (scheduler quiescent) only the work that can change
// state runs: power and thermal integration, the kernel clock, and the
// hooks. The scheduler and the governor are called only when one of the
// machine's two deadlines falls due — the scheduler's next rebalance
// point and the governor's next control boundary — because between
// those boundaries both calls are provably no-ops. The golden scenario
// digests pin the observable behavior of both paths; they were proven
// byte-identical to the original fixed-tick reference loop by the
// differential equivalence suite before that loop was deleted.
//
// Everything is deterministic: all randomness flows from seeds in the
// configs, and no wall-clock time is consulted anywhere.
package sim

import (
	"hetpapi/internal/dvfs"
	"hetpapi/internal/events"
	"hetpapi/internal/hw"
	"hetpapi/internal/perfevent"
	"hetpapi/internal/power"
	"hetpapi/internal/sched"
	"hetpapi/internal/spantrace"
	"hetpapi/internal/sysfs"
	"hetpapi/internal/thermal"
	"hetpapi/internal/workload"
)

// timeEps absorbs the floating-point drift of summing ticks when
// comparing simulated times against deadlines.
const timeEps = 1e-12

// Config assembles the subsystem configurations.
type Config struct {
	// TickSec is the simulation step (default 1 ms).
	TickSec float64
	// Sched configures the scheduler.
	Sched sched.Config
	// DVFS configures the frequency governor.
	DVFS dvfs.Config
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		TickSec: 0.001,
		Sched:   sched.DefaultConfig(),
		DVFS:    dvfs.DefaultConfig(),
	}
}

// Machine is a running simulated system.
type Machine struct {
	// HW is the hardware description.
	HW *hw.Machine
	// Sched is the scheduler.
	Sched *sched.Scheduler
	// Kernel is the perf_event subsystem.
	Kernel *perfevent.Kernel
	// Governor is the DVFS governor.
	Governor *dvfs.Governor
	// Power is the package power / RAPL model.
	Power *power.Model
	// Thermal is the package thermal zone.
	Thermal *thermal.Model
	// FS is the live-backed synthetic sysfs/procfs tree.
	FS *sysfs.FS

	cfg     Config
	now     float64
	freqMHz []float64 // per logical CPU, as of the last tick
	// freqGen is bumped whenever a freqMHz entry changes value (see
	// FreqGen).
	freqGen uint64

	stepHooks  []*hookEntry
	inHooks    bool
	hooksDirty bool

	// The deadlines that gate idle-tick work: the scheduler's next
	// rebalance point and the governor's next control boundary.
	nextBalance float64
	nextDVFS    float64
	// Span cache: the scheduler's generation counter at the last span
	// refresh, and whether the machine was quiescent then. Valid until
	// the generation changes.
	spanValid bool
	spanIdle  bool
	schedGen  uint64

	// Immutable per-CPU topology caches (hot-path versions of the
	// hw.Machine lookups, resolved once at boot).
	cpuType    []*hw.CoreType
	cpuTypeIdx []int
	cpuSib     []int
	cpuMin     []float64
	physOf     []int // logical CPU -> dense physical-core index
	physType   []*hw.CoreType
	nPhys      int
	idleCoresW float64 // core power of a fully idle tick (constant)

	// Per-tick scratch reused by the busy path so steady-state ticks
	// allocate nothing.
	slotProc     []*sched.Process
	slotActive   []bool
	coreAct      []float64 // per dense physical core
	coreFreq     []float64
	tgtFreq      []float64 // per core-type target frequency memo
	tgtValid     []bool
	execCtx      workload.ExecContext
	statsScratch events.Stats

	tracer *spantrace.Recorder
	trk    *traceState
}

// StepHook observes the machine after each completed tick. Hooks run in
// registration order with the machine in a consistent post-tick state
// (Now() already advanced); they are how external harnesses check
// invariants, inject faults and schedule work without owning the step
// loop. Hooks fire at every tick boundary.
type StepHook func(*Machine)

// hookEntry is one registered StepHook. Removal nils h; the slice is
// compacted immediately, or after the in-flight dispatch completes when
// a hook removes itself (or a peer) mid-dispatch.
type hookEntry struct {
	h StepHook
}

// New boots a machine.
func New(m *hw.Machine, cfg Config) *Machine {
	if cfg.TickSec <= 0 {
		cfg.TickSec = 0.001
	}
	s := &Machine{
		HW:       m,
		Sched:    sched.New(m, cfg.Sched),
		Kernel:   perfevent.NewKernel(m),
		Governor: dvfs.New(m, cfg.DVFS),
		Power:    power.New(m.Power),
		Thermal:  thermal.New(m.Thermal),
		cfg:      cfg,
		freqMHz:  make([]float64, m.NumCPUs()),
	}
	s.buildTopologyCaches()
	for i := range s.freqMHz {
		s.freqMHz[i] = s.cpuMin[i]
	}
	s.Kernel.AttachPower(s.Power)
	s.Sched.AddHook(s.Kernel)
	// Hotplug flows kernel-first so plan-driven faults reach the
	// scheduler too: whichever door sets a CPU's state, the kernel's
	// callback keeps the scheduler's view in sync.
	s.Kernel.OnHotplug = func(cpu int, online bool) {
		s.Sched.SetOnline(cpu, online, s.now)
	}
	// Overflow-time attribution context for sampling events: the workload
	// phase executing on the CPU (when the task distinguishes phases) and
	// the DVFS frequency the tick is running at. Step sets freqMHz[cpu]
	// before calling TaskExec, so the value is current at overflow time.
	s.Kernel.OnSampleContext = func(pid, cpu int) (string, float64) {
		phase := ""
		if p := s.Sched.RunningOn(cpu); p != nil && p.PID == pid {
			if ph, ok := p.Task.(workload.Phased); ok {
				phase = ph.PhaseName()
			}
		}
		return phase, s.freqMHz[cpu]
	}
	s.FS = sysfs.New(m, s)
	s.nextBalance = s.Sched.NextBalanceSec()
	s.nextDVFS = s.Governor.NextUpdateSec()
	return s
}

// buildTopologyCaches resolves the per-CPU lookups the hot step path
// needs into flat slices: core types, SMT siblings, minimum OPPs, and a
// dense physical-core index in first-CPU order — the same order the
// legacy loop discovered physical cores in, so power summation keeps the
// exact floating-point sequence.
func (s *Machine) buildTopologyCaches() {
	m := s.HW
	ncpu := m.NumCPUs()
	s.cpuType = make([]*hw.CoreType, ncpu)
	s.cpuTypeIdx = make([]int, ncpu)
	s.cpuSib = make([]int, ncpu)
	s.cpuMin = make([]float64, ncpu)
	s.physOf = make([]int, ncpu)
	physIndex := map[int]int{}
	for cpu := 0; cpu < ncpu; cpu++ {
		t := m.TypeOf(cpu)
		s.cpuType[cpu] = t
		s.cpuTypeIdx[cpu] = m.CPUs[cpu].TypeIndex
		s.cpuSib[cpu] = m.SiblingOf(cpu)
		s.cpuMin[cpu] = t.MinFreqMHz
		phys := m.CPUs[cpu].PhysCore
		idx, ok := physIndex[phys]
		if !ok {
			idx = len(physIndex)
			physIndex[phys] = idx
			s.physType = append(s.physType, t)
			s.idleCoresW += t.IdleWatts
		}
		s.physOf[cpu] = idx
	}
	s.nPhys = len(physIndex)
	s.slotProc = make([]*sched.Process, ncpu)
	s.slotActive = make([]bool, ncpu)
	s.coreAct = make([]float64, s.nPhys)
	s.coreFreq = make([]float64, s.nPhys)
	s.tgtFreq = make([]float64, len(m.Types))
	s.tgtValid = make([]bool, len(m.Types))
}

// SetCPUOnline hotplugs a CPU: offlining invalidates CPU-wide perf
// events opened on it and evicts its running task; onlining makes it
// schedulable again (dead perf descriptors stay dead).
func (s *Machine) SetCPUOnline(cpu int, online bool) {
	s.Kernel.SetCPUOnline(cpu, online)
}

// AddStepHook registers a hook called at the end of every Step and returns
// a function that unregisters it. Harnesses that attach to a machine for
// one run of many (the settle-between-runs protocol reuses a warm machine)
// must remove their hooks when done. Removal compacts the hook list, so
// attach/detach cycles do not grow it; the remove function is idempotent
// and safe to call from inside a hook dispatch.
func (s *Machine) AddStepHook(h StepHook) (remove func()) {
	e := &hookEntry{h: h}
	s.stepHooks = append(s.stepHooks, e)
	return func() { s.removeStepHook(e) }
}

func (s *Machine) removeStepHook(e *hookEntry) {
	if e.h == nil {
		return
	}
	e.h = nil
	if s.inHooks {
		s.hooksDirty = true // compact after the in-flight dispatch
		return
	}
	s.compactHooks()
}

func (s *Machine) compactHooks() {
	kept := s.stepHooks[:0]
	for _, e := range s.stepHooks {
		if e.h != nil {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(s.stepHooks); i++ {
		s.stepHooks[i] = nil
	}
	s.stepHooks = kept
	s.hooksDirty = false
}

// fireHooks dispatches the post-tick hooks in registration order. Hooks
// registered during dispatch run from the next tick on; hooks removed
// during dispatch are skipped if not yet reached.
func (s *Machine) fireHooks() {
	if len(s.stepHooks) == 0 {
		return
	}
	hooks := s.stepHooks
	s.inHooks = true
	for _, e := range hooks {
		if h := e.h; h != nil {
			h(s)
		}
	}
	s.inHooks = false
	if s.hooksDirty {
		s.compactHooks()
	}
}

// Now returns the simulated time in seconds.
func (s *Machine) Now() float64 { return s.now }

// Tick returns the simulation step in seconds.
func (s *Machine) Tick() float64 { return s.cfg.TickSec }

// Spawn schedules a task with the given affinity and returns its process.
func (s *Machine) Spawn(t workload.Task, affinity hw.CPUSet) *sched.Process {
	return s.Sched.Spawn(t, affinity)
}

// CurFreqMHz returns the frequency a CPU ran at during the last tick.
func (s *Machine) CurFreqMHz(cpu int) float64 { return s.freqMHz[cpu] }

// FreqGen returns the frequency generation: it changes on every tick on
// which some CPU's CurFreqMHz changed value, and only then. A reader that
// saw the same FreqGen before would see every CurFreqMHz unchanged.
func (s *Machine) FreqGen() uint64 { return s.freqGen }

// CurFreqKHz implements sysfs.Live.
func (s *Machine) CurFreqKHz(cpu int) int { return int(s.freqMHz[cpu] * 1000) }

// ZoneTempMilliC implements sysfs.Live.
func (s *Machine) ZoneTempMilliC() int { return s.Thermal.TempMilliC() }

// EnergyUJ implements sysfs.Live.
func (s *Machine) EnergyUJ() uint64 {
	return uint64(s.Power.EnergyJ(power.DomainPkg) * 1e6)
}

// Step advances the simulation by one tick. A deadline is due when it
// falls within the tick (at <= now + dt + eps); the tick then runs
// either the idle path (scheduler quiescent, skipping the calls no due
// deadline asks for) or the full busy path, and dispatches the
// StepHooks.
func (s *Machine) Step() {
	if !s.spanValid || s.Sched.Gen() != s.schedGen {
		s.refreshSpan()
	}
	dt := s.cfg.TickSec
	limit := s.now + dt + timeEps
	balance, dvfs := s.nextBalance <= limit, s.nextDVFS <= limit
	if s.spanIdle {
		s.idleTick(balance, dvfs, dt)
	} else {
		s.busyTick(balance, dvfs, dt)
	}
	s.fireHooks()
}

// refreshSpan recomputes the span mode after a scheduler mutation (or on
// the first tick). On entry to an idle span it publishes the frequencies
// every legacy tick would recompute: idle CPUs sit at their minimum OPP
// for the whole span.
func (s *Machine) refreshSpan() {
	s.schedGen = s.Sched.Gen()
	s.spanValid = true
	idle := s.Sched.Quiescent()
	if idle {
		for cpu, f := range s.cpuMin {
			if s.freqMHz[cpu] != f {
				s.freqMHz[cpu] = f
				s.freqGen++
			}
		}
	}
	s.spanIdle = idle
}

// idleTick advances one tick with the scheduler quiescent. Only the
// continuous integrators run unconditionally; the scheduler and governor
// run exactly when their deadlines come due, which reproduces the legacy
// loop bit for bit because the skipped calls were no-ops (their own
// boundary comparisons, re-run on the due tick, gate all mutation).
func (s *Machine) idleTick(balance, dvfs bool, dt float64) {
	now := s.now
	if balance {
		s.Sched.Tick(now)
		s.nextBalance = s.Sched.NextBalanceSec()
	}
	s.Power.Step(s.idleCoresW, dt)
	s.Thermal.Step(s.Power.PkgPowerW(), dt)
	if dvfs {
		s.Governor.Update(now, s.Power.PkgPowerW(), s.Power.CapW(), s.Thermal.TempC())
		s.nextDVFS = s.Governor.NextUpdateSec()
	}
	s.now = now + dt
	s.Kernel.Advance(s.now)
}

// busyTick is the full per-CPU tick, the alloc-free rewrite of the
// legacy loop: same subsystem call order, same floating-point operation
// sequence, with the per-tick maps and heap allocations replaced by the
// machine's persistent scratch.
func (s *Machine) busyTick(balance, dvfs bool, dt float64) {
	now := s.now
	s.Sched.Tick(now)
	if balance {
		s.nextBalance = s.Sched.NextBalanceSec()
	}

	// Determine per-CPU occupancy to pick frequencies and SMT factors.
	ncpu := len(s.slotProc)
	for cpu := 0; cpu < ncpu; cpu++ {
		p := s.Sched.RunningOn(cpu)
		s.slotProc[cpu] = p
		s.slotActive[cpu] = p != nil && p.Task.Ready()
	}
	for i := 0; i < s.nPhys; i++ {
		s.coreAct[i] = 0
		s.coreFreq[i] = 0
	}
	for i := range s.tgtValid {
		s.tgtValid[i] = false
	}

	kernelLive := s.Kernel.NumOpen() > 0
	for cpu := 0; cpu < ncpu; cpu++ {
		active := s.slotActive[cpu]
		var freq float64
		if !active {
			freq = s.cpuMin[cpu]
		} else {
			// The busy target depends only on the core type and the
			// governor state, which is constant within a tick: memoize
			// per type so each quantization runs once per tick.
			ti := s.cpuTypeIdx[cpu]
			if !s.tgtValid[ti] {
				s.tgtFreq[ti] = s.Governor.TargetMHz(s.cpuType[cpu])
				s.tgtValid[ti] = true
			}
			freq = s.tgtFreq[ti]
		}
		if s.freqMHz[cpu] != freq {
			s.freqMHz[cpu] = freq
			s.freqGen++
		}
		phys := s.physOf[cpu]
		if freq > s.coreFreq[phys] {
			s.coreFreq[phys] = freq
		}
		if !active {
			continue
		}
		throughput := 1.0
		if sib := s.cpuSib[cpu]; sib >= 0 && s.slotActive[sib] {
			throughput = s.cpuType[cpu].SMTThroughput
		}
		s.execCtx = workload.ExecContext{
			CPU:        cpu,
			Type:       s.cpuType[cpu],
			FreqMHz:    freq,
			Throughput: throughput,
		}
		task := s.slotProc[cpu].Task
		var activity float64
		if sr, ok := task.(workload.StatsRunner); ok {
			activity = sr.RunStats(&s.execCtx, dt, &s.statsScratch)
		} else {
			s.statsScratch, activity = task.Run(&s.execCtx, dt)
		}
		if kernelLive {
			s.Kernel.TaskExec(s.slotProc[cpu].PID, cpu, dt, s.statsScratch)
		}
		if activity > s.coreAct[phys] {
			s.coreAct[phys] = activity
		}
	}

	// Package power from per-core activity, summed in the legacy
	// first-CPU-per-physical-core order.
	var coresW float64
	for i := 0; i < s.nPhys; i++ {
		t := s.physType[i]
		w := t.IdleWatts
		if act := s.coreAct[i]; act > 0 {
			x := s.coreFreq[i] / t.MaxFreqMHz
			w += t.DynWattsAtMax * act * x * x * x
		}
		coresW += w
	}

	s.Power.Step(coresW, dt)
	s.Thermal.Step(s.Power.PkgPowerW(), dt)
	s.Governor.Update(now, s.Power.PkgPowerW(), s.Power.CapW(), s.Thermal.TempC())
	if dvfs {
		s.nextDVFS = s.Governor.NextUpdateSec()
	}
	s.now = now + dt
	s.Kernel.Advance(s.now)
}

// RunFor advances the simulation by the given number of seconds.
func (s *Machine) RunFor(seconds float64) {
	end := s.now + seconds
	for s.now < end-timeEps {
		s.Step()
	}
}

// RunUntil steps the simulation until cond returns true or maxSeconds of
// simulated time elapse; it reports whether the condition was met.
func (s *Machine) RunUntil(cond func() bool, maxSeconds float64) bool {
	deadline := s.now + maxSeconds
	for s.now < deadline {
		if cond() {
			return true
		}
		s.Step()
	}
	return cond()
}

// Settle idles the machine (no new work) until the thermal zone cools to
// targetC or reaches its idle floor, mirroring the paper's protocol of
// waiting for the package to settle at 35 degC between runs. It returns the
// simulated seconds spent waiting.
func (s *Machine) Settle(targetC float64) float64 {
	start := s.now
	floorReached := func() bool {
		if s.Thermal.TempC() <= targetC {
			return true
		}
		// Idle steady state: give up once cooling has effectively stopped.
		return s.Thermal.TempC() <= s.Thermal.SteadyStateC(s.Power.PkgPowerW())+0.05
	}
	s.RunUntil(floorReached, 3600)
	return s.now - start
}
