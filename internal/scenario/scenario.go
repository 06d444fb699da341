// Package scenario is the declarative end-to-end harness for the simulated
// machines: a Spec names a machine model, a workload mix, scheduler/DVFS
// configuration, injected events (task migration, power caps, frequency
// caps, thermal ramps) and a set of invariant assertions; Run boots the
// machine, drives it under the paper's 1 Hz monitoring methodology and
// machine-checks every invariant on every tick and at end of run.
//
// The package exists so that correctness checking is written once: the
// experiment drivers in internal/exp, the examples and the regression
// tests all execute through the same harness, and every run — whether it
// regenerates a paper table or smoke-tests a refactor — is continuously
// audited for counter monotonicity, energy conservation, per-core-type
// event validity, affinity, DVFS envelopes and physical power/thermal
// bounds. Reference scenarios (scenarios.go) additionally pin golden trace
// digests under testdata/, so any behavioral drift in sim, sched, dvfs,
// power, thermal or perfevent fails `go test ./internal/scenario`.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"hetpapi/internal/core"
	"hetpapi/internal/dvfs"
	"hetpapi/internal/events"
	"hetpapi/internal/hw"
	"hetpapi/internal/perfevent"
	"hetpapi/internal/sched"
	"hetpapi/internal/sim"
	"hetpapi/internal/spantrace"
	"hetpapi/internal/trace"
	"hetpapi/internal/workload"
)

// Machines maps the spec-addressable machine model names to their
// constructors: every preset of hw.Models.
var Machines = func() map[string]func() *hw.Machine {
	m := make(map[string]func() *hw.Machine, len(hw.Models))
	for _, md := range hw.Models {
		m[md.Name] = md.Make
	}
	return m
}()

// WorkloadKind selects a workload model.
type WorkloadKind string

// The workload kinds a spec can request.
const (
	// WorkloadHPL is the blocked-LU linpack model; one thread per entry
	// of CPUs, each pinned to its CPU.
	WorkloadHPL WorkloadKind = "hpl"
	// WorkloadLoop is a fixed instruction loop (the papi_hybrid test
	// program shape).
	WorkloadLoop WorkloadKind = "loop"
	// WorkloadSpin is a fixed-duration spin-wait.
	WorkloadSpin WorkloadKind = "spin"
	// WorkloadStream is the LLC-hostile memory streamer.
	WorkloadStream WorkloadKind = "stream"
	// WorkloadStride is the deterministic strided sweep whose cache
	// events follow from the machine geometry (workload.StrideRates) —
	// the validation suite's memory oracle.
	WorkloadStride WorkloadKind = "stride"
)

// WorkloadSpec declares one workload of a scenario. Unused parameter
// fields for the chosen Kind are ignored.
type WorkloadSpec struct {
	// Kind selects the workload model.
	Kind WorkloadKind
	// Name labels the workload in results (defaults to the kind).
	Name string
	// CPUs is the affinity pin list; empty means all CPUs. HPL spawns one
	// thread per listed CPU and requires a non-empty list.
	CPUs []int
	// StartSec delays the spawn into the run.
	StartSec float64

	// N, NB, Strategy and Seed parameterize WorkloadHPL.
	N, NB    int
	Strategy workload.Strategy
	Seed     int64

	// InstrPerRep and Reps parameterize WorkloadLoop.
	InstrPerRep float64
	Reps        int

	// Seconds parameterizes WorkloadSpin.
	Seconds float64

	// Instructions and LLCMissRate parameterize WorkloadStream.
	// Instructions also parameterizes WorkloadStride.
	Instructions float64
	LLCMissRate  float64

	// StrideBytes and FootprintKB parameterize WorkloadStride (together
	// with Instructions); the machine's LLCKB completes the geometry.
	StrideBytes int
	FootprintKB int
}

func (w *WorkloadSpec) label(i int) string {
	if w.Name != "" {
		return w.Name
	}
	return fmt.Sprintf("%s-%d", w.Kind, i)
}

// InjectKind selects a fault/event injection.
type InjectKind string

// The injections a spec can schedule.
const (
	// InjectMigrate rewrites the affinity of workload index Workload to
	// CPUs (the sched_setaffinity operation mid-run).
	InjectMigrate InjectKind = "migrate"
	// InjectPowerLimit rewrites the RAPL PL1/PL2 limits to PL1W/PL2W.
	InjectPowerLimit InjectKind = "power-limit"
	// InjectFreqCap sets the user frequency ceiling of core class Class
	// to MHz (0 removes it).
	InjectFreqCap InjectKind = "freq-cap"
	// InjectHeat dumps HeatJ joules into the thermal zone.
	InjectHeat InjectKind = "heat"
	// InjectCounterSteal models the NMI watchdog (or another kernel-side
	// consumer) grabbing a counter on every PMU of core class Class: new
	// cycles events fail with EBUSY on PMUs with a fixed cycles counter,
	// and already-running groups containing cycles stop being scheduled.
	// DurSec > 0 schedules the matching release automatically.
	InjectCounterSteal InjectKind = "counter-steal"
	// InjectHotplugOff takes CPU offline: its CPU-wide perf descriptors
	// die with ENODEV and its running task is evicted.
	InjectHotplugOff InjectKind = "hotplug-off"
	// InjectHotplugOn brings CPU back online (descriptors killed by a
	// previous offline stay dead; the harness reopens its own).
	InjectHotplugOn InjectKind = "hotplug-on"
	// InjectBufferPressure caps every sampling ring buffer at Cap
	// records, forcing overflow records to be dropped and counted lost.
	InjectBufferPressure InjectKind = "buffer-pressure"

	// injectCounterRelease is the internal event a DurSec-bounded
	// counter-steal expands into.
	injectCounterRelease InjectKind = "counter-release"
)

// Inject is one scheduled event of a scenario, applied at the first tick
// boundary at or after AtSec.
type Inject struct {
	AtSec float64
	Kind  InjectKind

	// Workload and CPUs parameterize InjectMigrate.
	Workload int
	CPUs     []int
	// PL1W and PL2W parameterize InjectPowerLimit.
	PL1W, PL2W float64
	// Class and MHz parameterize InjectFreqCap; Class also selects the
	// PMUs of InjectCounterSteal.
	Class hw.CoreClass
	MHz   float64
	// HeatJ parameterizes InjectHeat.
	HeatJ float64
	// DurSec bounds an InjectCounterSteal: the counter is released
	// DurSec after AtSec (0 = held for the rest of the run).
	DurSec float64
	// CPU parameterizes InjectHotplugOff/InjectHotplugOn.
	CPU int
	// Cap parameterizes InjectBufferPressure (records per ring).
	Cap int
}

// Spec declares a complete scenario.
type Spec struct {
	// Name identifies the scenario in results and golden files.
	Name string
	// Machine names a model in Machines; MachineFn, when set, overrides
	// the registry (used to run perturbed machine variants).
	Machine   string
	MachineFn func() *hw.Machine

	// TickSec overrides the simulation step (0 = sim default 1 ms).
	TickSec float64
	// SamplePeriodSec is the monitoring cadence (0 = the paper's 1 Hz).
	SamplePeriodSec float64
	// MaxSeconds bounds the run in simulated time (0 = 60 s). The run
	// ends earlier once every workload has finished.
	MaxSeconds float64
	// Seed seeds the scheduler perturbation RNG.
	Seed int64
	// Sched and DVFS override the subsystem configs (nil = defaults).
	// The seed in Sched, if set, takes precedence over Seed.
	Sched *sched.Config
	DVFS  *dvfs.Config

	// Workloads is the workload mix.
	Workloads []WorkloadSpec
	// Injects are the scheduled events, applied in AtSec order.
	Injects []Inject
	// Measure, when non-nil, attaches a PAPI-style EventSet probe to one
	// workload; its readings are audited every tick by the
	// reads-monotonic and scale-bounded invariants and its final values
	// and degradation report land in the Result (and the golden digest).
	Measure *MeasureSpec
	// Invariants are checked every tick and at end of run; nil means
	// Standard(). Use a non-nil empty slice to disable checking.
	Invariants []Invariant
	// StepHooks are observer callbacks fired after every completed tick,
	// in slice order, after the invariant audit for that tick (so hooks
	// see an already-checked machine state) and before injections and
	// delayed spawns reconfigure the next tick. Multiple harness layers
	// (telemetry collection, custom probes) register here side by side
	// with the audit; hooks must observe only and never step the machine.
	StepHooks []StepHook
	// Tracer, when non-nil, attaches the span recorder to the whole
	// machine stack for the run: the harness begins a per-run trace
	// context, emits run/inject/workload events on the "scenario"
	// track, and every layer below (core, perfevent, sim) records onto
	// its own tracks. Enable the recorder before Run; disabled or nil
	// recorders cost a few nanoseconds per instrumentation site.
	Tracer *spantrace.Recorder
	// Stop, when non-nil, is polled once per tick boundary; the run ends
	// early when it returns true (Result.Stopped is set and Completed is
	// false unless every workload had already finished). It is how a
	// long-running service cancels an in-flight scenario on shutdown.
	Stop func() bool
}

// Clone returns a deep copy of the spec that shares no mutable slices
// with the original: Workloads (including each workload's CPU pin list),
// Injects (including their CPU lists), StepHooks, Invariants and the
// Measure spec all get fresh backing arrays. Harnesses that expand one
// template Spec into many machines (the fleet generator) clone per
// machine, so appending a StepHook or rewriting a CPU list on one
// machine can never alias into another running on a different worker.
//
// Two reference-typed fields are copied by reference and need care when
// a template fans out: Invariant instances hold per-run state (leave
// Invariants nil so every run builds a fresh Standard() set), and
// Tracer/Stop/MachineFn closures are shared as-is.
func (s Spec) Clone() Spec {
	out := s
	if s.Workloads != nil {
		out.Workloads = make([]WorkloadSpec, len(s.Workloads))
		for i, w := range s.Workloads {
			out.Workloads[i] = w
			out.Workloads[i].CPUs = append([]int(nil), w.CPUs...)
		}
	}
	if s.Injects != nil {
		out.Injects = make([]Inject, len(s.Injects))
		for i, inj := range s.Injects {
			out.Injects[i] = inj
			out.Injects[i].CPUs = append([]int(nil), inj.CPUs...)
		}
	}
	if s.StepHooks != nil {
		out.StepHooks = append([]StepHook(nil), s.StepHooks...)
	}
	if s.Invariants != nil {
		out.Invariants = append([]Invariant(nil), s.Invariants...)
	}
	if s.Measure != nil {
		m := *s.Measure
		m.Events = append([]string(nil), s.Measure.Events...)
		out.Measure = &m
	}
	if s.Sched != nil {
		c := *s.Sched
		out.Sched = &c
	}
	if s.DVFS != nil {
		c := *s.DVFS
		out.DVFS = &c
	}
	return out
}

// TypeCounters holds system-wide counter totals for one core type, the
// per-PMU split a "perf stat -a" run reports on a hybrid machine.
type TypeCounters struct {
	Instructions float64
	Cycles       float64
	LLCRefs      float64
	LLCMisses    float64
}

// MissRate returns LLC misses / references (0 when idle).
func (c TypeCounters) MissRate() float64 {
	if c.LLCRefs == 0 {
		return 0
	}
	return c.LLCMisses / c.LLCRefs
}

// WorkloadResult reports one workload's outcome.
type WorkloadResult struct {
	// Name and Kind echo the spec.
	Name string
	Kind WorkloadKind
	// Done reports whether the workload finished within MaxSeconds.
	Done bool
	// ElapsedSec is spawn-to-finish (or spawn-to-end-of-run) time.
	ElapsedSec float64
	// Gflops is the HPL figure of merit (HPL workloads that finished).
	Gflops float64
}

// Violation is one invariant failure.
type Violation struct {
	// AtSec is the simulated time of the failure (-1 for end-of-run
	// checks).
	AtSec float64
	// Invariant is the failing invariant's name.
	Invariant string
	// Detail is the failure description.
	Detail string
}

func (v Violation) String() string {
	if v.AtSec < 0 {
		return fmt.Sprintf("[final] %s: %s", v.Invariant, v.Detail)
	}
	return fmt.Sprintf("[t=%.3fs] %s: %s", v.AtSec, v.Invariant, v.Detail)
}

// Result is the outcome of a scenario run.
type Result struct {
	// Name and MachineName echo the resolved spec.
	Name        string
	MachineName string
	// Completed reports whether every workload finished within
	// MaxSeconds.
	Completed bool
	// ElapsedSec is the simulated duration of the run.
	ElapsedSec float64
	// Samples is the monitoring trace.
	Samples []trace.Sample
	// ByType holds the per-core-type system-wide counter deltas.
	ByType map[string]TypeCounters
	// Workloads holds per-workload outcomes, in spec order.
	Workloads []WorkloadResult
	// EnergyJ is the package energy consumed over the run.
	EnergyJ float64
	// MeasureFinal holds the probe's final degradation-aware values, in
	// Spec.Measure.Events order (nil without a Measure spec).
	MeasureFinal []core.Value
	// Degradations is the probe's degradation report (nil without a
	// Measure spec).
	Degradations *core.DegradationReport
	// Digest is the stable hash of the run's observable behavior (trace,
	// counters, workload outcomes); see Result.computeDigest.
	Digest string
	// Stopped reports that Spec.Stop ended the run early.
	Stopped bool
	// Violations lists every invariant failure (at most one per
	// invariant; checking stops for an invariant once it has failed).
	Violations []Violation
}

// computeDigest hashes everything a golden trace pins: the full monitoring
// trace (via the canonical CSV rendering), the per-type counters, the
// workload outcomes and the energy total. Counter values are rounded to
// integers and scalars fixed to millidigits so the digest is a property of
// machine behavior, not float formatting.
func (r *Result) computeDigest(ncpu int) string {
	h := sha256.New()
	fmt.Fprintf(h, "trace %s\n", trace.DigestSamples(ncpu, r.Samples))
	names := make([]string, 0, len(r.ByType))
	for name := range r.ByType {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := r.ByType[name]
		fmt.Fprintf(h, "type %s %.0f %.0f %.0f %.0f\n",
			name, c.Instructions, c.Cycles, c.LLCRefs, c.LLCMisses)
	}
	for _, w := range r.Workloads {
		fmt.Fprintf(h, "workload %s %s done=%v elapsed=%.3f gflops=%.3f\n",
			w.Name, w.Kind, w.Done, w.ElapsedSec, w.Gflops)
	}
	fmt.Fprintf(h, "energy %.3f\n", r.EnergyJ)
	if r.Degradations != nil {
		for i, v := range r.MeasureFinal {
			fmt.Fprintf(h, "measure %d final=%d raw=%d scaled=%d stale=%v degraded=%v\n",
				i, v.Final, v.Raw, v.Scaled, v.Stale, v.Degraded)
		}
		d := r.Degradations
		fmt.Fprintf(h, "degradations busy=%d deferred=%d mux=%d rebuilds=%d stale=%d clamps=%d\n",
			d.BusyRetries, d.DeferredStarts, d.MultiplexFallback, d.HotplugRebuilds,
			d.StaleReads, d.MonotonicClamps)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Err returns a single error summarizing the run's violations, or nil.
func (r *Result) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %q: %d invariant violation(s):", r.Name, len(r.Violations))
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}

// StepHook observes a scenario run after each completed tick, with the
// same post-tick Context the invariants check. The harness calls every
// registered hook once per tick, after the invariant audit and before the
// tick's injections and delayed spawns are applied.
type StepHook func(*Context)

// Run boots a fresh machine from the spec and executes the scenario. The
// returned error is non-nil when the spec is invalid, a workload cannot be
// built, or any invariant was violated; the Result is returned alongside
// the error whenever the run itself happened.
func Run(spec Spec) (*Result, error) {
	s, err := Boot(spec)
	if err != nil {
		return nil, err
	}
	return RunOn(s, spec)
}

// Boot builds and boots the spec's machine without running the scenario,
// for callers that want to interleave harness runs with direct machine
// control (the settle-between-runs protocol).
func Boot(spec Spec) (*sim.Machine, error) {
	mk := spec.MachineFn
	if mk == nil {
		var ok bool
		mk, ok = Machines[spec.Machine]
		if !ok {
			return nil, fmt.Errorf("scenario %q: unknown machine %q", spec.Name, spec.Machine)
		}
	}
	m := mk()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	cfg := sim.DefaultConfig()
	if spec.TickSec > 0 {
		cfg.TickSec = spec.TickSec
	}
	if spec.Sched != nil {
		cfg.Sched = *spec.Sched
	}
	if spec.Sched == nil || spec.Sched.Seed == 0 {
		cfg.Sched.Seed = spec.Seed
	}
	if spec.DVFS != nil {
		cfg.DVFS = *spec.DVFS
	}
	return sim.New(m, cfg), nil
}

// RunOn executes the scenario on an already-booted (possibly warm)
// machine. The spec's Machine/TickSec/Sched/DVFS fields are ignored — the
// machine's own configuration governs.
func RunOn(s *sim.Machine, spec Spec) (*Result, error) {
	res, err := runOn(s, spec)
	if err != nil {
		return res, err
	}
	return res, res.Err()
}

// spawnedWorkload tracks one WorkloadSpec's live state during a run.
type spawnedWorkload struct {
	spec  *WorkloadSpec
	hpl   *workload.HPL
	tasks []workload.Task
	procs []*sched.Process

	spawned   bool
	startedAt float64
	doneAt    float64
}

func (sw *spawnedWorkload) done() bool {
	if !sw.spawned {
		return false
	}
	if sw.hpl != nil {
		return sw.hpl.Done()
	}
	for _, t := range sw.tasks {
		if !t.Done() {
			return false
		}
	}
	return true
}

// build constructs the workload's tasks (without spawning them).
func (sw *spawnedWorkload) build(m *hw.Machine, label string) error {
	w := sw.spec
	switch w.Kind {
	case WorkloadHPL:
		if len(w.CPUs) == 0 {
			return fmt.Errorf("workload %s: HPL needs an explicit CPU list", label)
		}
		strat := w.Strategy
		if strat.Name == "" {
			strat = workload.OpenBLASx86()
		}
		h, err := workload.NewHPL(workload.HPLConfig{
			N: w.N, NB: w.NB, Threads: len(w.CPUs), Strategy: strat, Seed: w.Seed,
		})
		if err != nil {
			return fmt.Errorf("workload %s: %w", label, err)
		}
		sw.hpl = h
		sw.tasks = h.Threads()
	case WorkloadLoop:
		sw.tasks = []workload.Task{workload.NewInstructionLoop(label, w.InstrPerRep, w.Reps)}
	case WorkloadSpin:
		sw.tasks = []workload.Task{workload.NewSpin(label, w.Seconds)}
	case WorkloadStream:
		sw.tasks = []workload.Task{workload.NewStream(label, w.Instructions, w.LLCMissRate, w.Seed)}
	case WorkloadStride:
		sw.tasks = []workload.Task{workload.NewStride(label, w.Instructions, w.StrideBytes, w.FootprintKB, m.LLCKB)}
	default:
		return fmt.Errorf("workload %s: unknown kind %q", label, w.Kind)
	}
	for _, cpu := range w.CPUs {
		if cpu < 0 || cpu >= m.NumCPUs() {
			return fmt.Errorf("workload %s: cpu %d out of range (machine has %d)", label, cpu, m.NumCPUs())
		}
	}
	return nil
}

func (sw *spawnedWorkload) spawn(s *sim.Machine, now float64) {
	w := sw.spec
	for i, task := range sw.tasks {
		var aff hw.CPUSet
		switch {
		case len(w.CPUs) == 0:
			aff = hw.AllCPUs(s.HW)
		case sw.hpl != nil:
			aff = hw.NewCPUSet(w.CPUs[i]) // one HPL thread per listed CPU
		default:
			aff = hw.NewCPUSet(w.CPUs...)
		}
		sw.procs = append(sw.procs, s.Spawn(task, aff))
	}
	sw.spawned = true
	sw.startedAt = now
	sw.doneAt = -1
}

func runOn(s *sim.Machine, spec Spec) (*Result, error) {
	maxSec := spec.MaxSeconds
	if maxSec <= 0 {
		maxSec = 60
	}
	period := spec.SamplePeriodSec
	if period <= 0 {
		period = 1
	}
	invariants := spec.Invariants
	if invariants == nil {
		invariants = Standard()
	}

	workloads := make([]*spawnedWorkload, len(spec.Workloads))
	for i := range spec.Workloads {
		workloads[i] = &spawnedWorkload{spec: &spec.Workloads[i]}
		if err := workloads[i].build(s.HW, spec.Workloads[i].label(i)); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
		}
	}
	for _, inj := range spec.Injects {
		switch inj.Kind {
		case InjectMigrate:
			if inj.Workload < 0 || inj.Workload >= len(workloads) {
				return nil, fmt.Errorf("scenario %q: migrate inject targets workload %d of %d",
					spec.Name, inj.Workload, len(workloads))
			}
		case InjectHotplugOff, InjectHotplugOn:
			if inj.CPU < 0 || inj.CPU >= s.HW.NumCPUs() {
				return nil, fmt.Errorf("scenario %q: %s inject targets cpu %d (machine has %d)",
					spec.Name, inj.Kind, inj.CPU, s.HW.NumCPUs())
			}
		}
	}
	injects := append([]Inject(nil), spec.Injects...)
	// A bounded counter-steal expands into its own release event.
	for _, inj := range spec.Injects {
		if inj.Kind == InjectCounterSteal && inj.DurSec > 0 {
			injects = append(injects, Inject{
				AtSec: inj.AtSec + inj.DurSec, Kind: injectCounterRelease, Class: inj.Class,
			})
		}
	}
	sort.SliceStable(injects, func(i, j int) bool { return injects[i].AtSec < injects[j].AtSec })

	// Attach tracing before the first syscall so the harness's own
	// system-wide opens land in the trace too.
	rt := beginRunTrace(s, &spec)

	wide, err := openWide(s)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	defer wide.close(s)

	start := s.Now()
	ctx := &Context{
		Sim:          s,
		Spec:         &spec,
		StartSec:     start,
		PrevNowSec:   start,
		StartEnergyJ: s.Power.EnergyJ(0),
		Wide:         wide.events,
		Foreign:      wide.foreign,
	}

	var probe *measureProbe
	if spec.Measure != nil {
		probe, err = newMeasureProbe(s, spec.Measure, len(workloads))
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
		}
		ctx.Measure = &probe.state
		defer probe.cleanup()
	}

	res := &Result{Name: spec.Name, MachineName: s.HW.Name}
	// failed is indexed by owner[i], the first invariant carrying
	// invariant i's name, so invariants sharing a name stop together.
	owner := make([]int, len(invariants))
	first := make(map[string]int, len(invariants))
	for i, inv := range invariants {
		if _, seen := first[inv.Name()]; !seen {
			first[inv.Name()] = i
		}
		owner[i] = first[inv.Name()]
	}
	failed := make([]bool, len(invariants))
	report := func(atSec float64, i int, err error) {
		if err == nil {
			return
		}
		failed[owner[i]] = true
		res.Violations = append(res.Violations, Violation{
			AtSec: atSec, Invariant: invariants[i].Name(), Detail: err.Error(),
		})
	}

	// Spawn the t=0 workloads before the recorder takes its first sample.
	for i, sw := range workloads {
		if sw.spec.StartSec <= 0 {
			sw.spawn(s, s.Now())
			rt.workload("workload.spawn", sw.spec.label(i), s.Now())
		}
	}
	for _, sw := range workloads {
		ctx.Procs = append(ctx.Procs, sw.procs...)
	}

	// The harness owns the run loop. After each Step, inside which any
	// sim.StepHook observers have already run, it runs a fixed pipeline
	// of stages sharing one Context: the measurement probe first (so the
	// audit and every observer see this tick's fresh reading), then the
	// invariant audit (against the tick that just completed), then every
	// spec-registered StepHook (telemetry samplers, probes) in order,
	// then control, which applies injections and delayed spawns, and
	// last the trace recorder's poll. Control configures the NEXT tick
	// (the scheduler enforces new affinity masks and the governor
	// applies new caps at its next pass), so checking or sampling this
	// tick against it would be wrong.
	audit := func() {
		now := s.Now() - start
		// The integral accumulates the same P*dt terms the power model
		// integrates, making energy conservation an exact bookkeeping
		// identity to check against.
		ctx.PowerIntegralJ += s.Power.PkgPowerW() * s.Tick()
		for i, inv := range invariants {
			if !failed[owner[i]] {
				report(now, i, inv.Check(ctx))
			}
		}
		ctx.PrevNowSec = s.Now()
	}
	nextInject := 0
	control := func() {
		now := s.Now() - start
		for nextInject < len(injects) && injects[nextInject].AtSec <= now {
			apply(s, workloads, wide, injects[nextInject])
			nextInject++
		}
		for i, sw := range workloads {
			if !sw.spawned && sw.spec.StartSec <= now {
				sw.spawn(s, s.Now())
				ctx.Procs = append(ctx.Procs, sw.procs...)
				rt.workload("workload.spawn", sw.spec.label(i), s.Now())
			}
			if sw.spawned && sw.doneAt < 0 && sw.done() {
				sw.doneAt = s.Now()
				rt.workload("workload.done", sw.spec.label(i), s.Now())
			}
		}
	}
	allDone := func() bool {
		for _, sw := range workloads {
			if !sw.done() {
				return false
			}
		}
		return len(workloads) > 0
	}

	rec := trace.NewRecorder(s, period)
	deadline := s.Now() + maxSec
	for {
		if spec.Stop != nil && spec.Stop() {
			res.Stopped = true
			break
		}
		if allDone() || s.Now() >= deadline {
			break
		}
		s.Step()
		if probe != nil {
			probe.step(s.Now()-start, workloads[spec.Measure.Workload])
		}
		audit()
		for _, h := range spec.StepHooks {
			h(ctx)
		}
		control()
		rec.Poll()
	}
	res.Completed = allDone()
	res.ElapsedSec = s.Now() - start
	res.Samples = rec.Samples()
	res.EnergyJ = s.Power.EnergyJ(0) - ctx.StartEnergyJ
	res.ByType = wide.collect(s)

	for i, sw := range workloads {
		wr := WorkloadResult{Name: sw.spec.label(i), Kind: sw.spec.Kind, Done: sw.done()}
		if sw.spawned {
			end := sw.doneAt
			if end < 0 {
				end = s.Now()
			}
			wr.ElapsedSec = end - sw.startedAt
			if sw.hpl != nil && wr.Done && wr.ElapsedSec > 0 {
				wr.Gflops = sw.hpl.Gflops(wr.ElapsedSec)
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}

	if probe != nil {
		res.MeasureFinal = probe.finish()
		rep := probe.state.Set.Degradations()
		res.Degradations = &rep
	}

	for i, inv := range invariants {
		if !failed[owner[i]] {
			report(-1, i, inv.Final(ctx))
		}
	}
	res.Digest = res.computeDigest(s.HW.NumCPUs())
	rt.end(s, res, start)
	return res, nil
}

// apply executes one injection.
func apply(s *sim.Machine, workloads []*spawnedWorkload, wide *wideSet, inj Inject) {
	traceInject(s, inj)
	switch inj.Kind {
	case InjectMigrate:
		set := hw.NewCPUSet(inj.CPUs...)
		for _, p := range workloads[inj.Workload].procs {
			// Ignore per-process errors: a finished (reaped) pid is not a
			// scenario failure.
			_ = s.Sched.SetAffinity(p.PID, set)
		}
	case InjectPowerLimit:
		s.Power.SetLimits(inj.PL1W, inj.PL2W)
	case InjectFreqCap:
		s.Governor.SetUserCapMHz(inj.Class, inj.MHz)
	case InjectHeat:
		s.Thermal.AddHeatJ(inj.HeatJ)
	case InjectCounterSteal:
		for _, pt := range pmuTypesOfClass(s.HW, inj.Class) {
			s.Kernel.SetWatchdog(pt, true)
		}
	case injectCounterRelease:
		for _, pt := range pmuTypesOfClass(s.HW, inj.Class) {
			s.Kernel.SetWatchdog(pt, false)
		}
	case InjectHotplugOff:
		// Snapshot the harness's own counters on that CPU before the
		// kernel kills them, so collected totals survive the offline.
		wide.offlineCPU(s, inj.CPU)
		s.SetCPUOnline(inj.CPU, false)
	case InjectHotplugOn:
		s.SetCPUOnline(inj.CPU, true)
		wide.reopenCPU(s, inj.CPU)
	case InjectBufferPressure:
		s.Kernel.SetSampleRingCap(inj.Cap)
	}
}

// pmuTypesOfClass returns the kernel PMU types of every core type of the
// given class.
func pmuTypesOfClass(m *hw.Machine, class hw.CoreClass) []uint32 {
	var out []uint32
	for i := range m.Types {
		if m.Types[i].Class == class {
			out = append(out, m.Types[i].PMU.PerfType)
		}
	}
	return out
}

// WideEvent is one system-wide counter the harness keeps open for
// monitoring and invariant checking.
type WideEvent struct {
	// FD is the perf_event descriptor (-1 while Dead).
	FD int
	// CPU is the CPU the event was opened on.
	CPU int
	// TypeName is the core type that owns the event's PMU.
	TypeName string
	// Kind is the architectural quantity counted.
	Kind events.Kind
	// Dead marks an event whose CPU was hotplugged off; its accumulated
	// delta is preserved harness-side and monitoring hooks must skip it.
	Dead bool

	attr  perfevent.Attr // for reopening after hotplug-on
	carry float64        // delta accumulated by dead predecessors
	base  float64        // value of FD when opened (warm machines)
}

type wideSet struct {
	events  []WideEvent
	foreign []WideEvent
}

// wideEvents are the generic hardware events the harness opens on every
// CPU's own PMU, in open order: the four "perf stat -a" quantities.
var wideEvents = [...]uint64{events.HWInstructions, events.HWCPUCycles, events.HWCacheReferences, events.HWCacheMisses}

// openWide opens the harness's system-wide counters: on every CPU the four
// "perf stat -a" events of the CPU's own PMU, plus — on hybrid machines —
// one foreign-PMU instruction counter per other core type, which the
// core-type-isolation invariant asserts never counts. Each is a generic
// hardware event extended with the PMU's type, as perf opens them.
func openWide(s *sim.Machine) (*wideSet, error) {
	m := s.HW
	ws := &wideSet{
		events:  make([]WideEvent, 0, m.NumCPUs()*len(wideEvents)),
		foreign: make([]WideEvent, 0, m.NumCPUs()*(len(m.Types)-1)),
	}
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		t := m.TypeOf(cpu)
		for _, id := range wideEvents {
			attr := perfevent.HardwareAttr(t.PMU.PerfType, id)
			fd, err := s.Kernel.Open(attr, -1, cpu, -1)
			if err != nil {
				return nil, fmt.Errorf("opening system-wide %s/%s/ on cpu%d: %w", t.PMU.Name, events.GenericName(id), cpu, err)
			}
			kind, _ := events.GenericKind(id)
			ws.events = append(ws.events, WideEvent{FD: fd, CPU: cpu, TypeName: t.Name, Kind: kind, attr: attr})
		}
		// Foreign-PMU probes: this CPU must never feed other types' PMUs.
		for i := range m.Types {
			ft := &m.Types[i]
			if ft.Name == t.Name {
				continue
			}
			attr := perfevent.HardwareAttr(ft.PMU.PerfType, events.HWInstructions)
			fd, err := s.Kernel.Open(attr, -1, cpu, -1)
			if err != nil {
				return nil, fmt.Errorf("opening foreign probe %s/instructions/ on cpu%d: %w", ft.PMU.Name, cpu, err)
			}
			ws.foreign = append(ws.foreign, WideEvent{FD: fd, CPU: cpu, TypeName: ft.Name, Kind: events.KindInstructions, attr: attr})
		}
	}
	for _, set := range [2][]WideEvent{ws.events, ws.foreign} {
		for i := range set {
			if c, err := s.Kernel.Read(set[i].FD); err == nil {
				set[i].base = float64(c.Value)
			}
		}
	}
	return ws, nil
}

// offlineCPU folds the current delta of every harness event on cpu into
// its carry and marks it dead, closing the descriptor. Must run before the
// kernel offlines the CPU (dead descriptors no longer read).
func (ws *wideSet) offlineCPU(s *sim.Machine, cpu int) {
	for _, set := range [2][]WideEvent{ws.events, ws.foreign} {
		for i := range set {
			we := &set[i]
			if we.CPU != cpu || we.Dead {
				continue
			}
			if c, err := s.Kernel.Read(we.FD); err == nil {
				we.carry += float64(c.Value) - we.base
			}
			s.Kernel.Close(we.FD)
			we.FD, we.Dead, we.base = -1, true, 0
		}
	}
}

// reopenCPU reopens the dead harness events of a re-onlined CPU; their
// carry keeps earlier counts. A failed reopen leaves the event dead.
func (ws *wideSet) reopenCPU(s *sim.Machine, cpu int) {
	for _, set := range [2][]WideEvent{ws.events, ws.foreign} {
		for i := range set {
			we := &set[i]
			if we.CPU != cpu || !we.Dead {
				continue
			}
			fd, err := s.Kernel.Open(we.attr, -1, cpu, -1)
			if err != nil {
				continue
			}
			we.FD, we.Dead = fd, false
			if c, err := s.Kernel.Read(fd); err == nil {
				we.base = float64(c.Value)
			}
		}
	}
}

func (ws *wideSet) collect(s *sim.Machine) map[string]TypeCounters {
	out := map[string]TypeCounters{}
	for _, we := range ws.events {
		v := we.carry
		if !we.Dead {
			// A read can still fail if a fault plan offlined the CPU
			// behind the harness's back; the carry is all we have then.
			if c, err := s.Kernel.Read(we.FD); err == nil {
				v += float64(c.Value) - we.base
			}
		}
		tc := out[we.TypeName]
		switch we.Kind {
		case events.KindInstructions:
			tc.Instructions += v
		case events.KindCycles:
			tc.Cycles += v
		case events.KindLLCRefs:
			tc.LLCRefs += v
		case events.KindLLCMisses:
			tc.LLCMisses += v
		}
		out[we.TypeName] = tc
	}
	return out
}

func (ws *wideSet) close(s *sim.Machine) {
	for _, we := range ws.events {
		if we.FD >= 0 {
			s.Kernel.Close(we.FD)
		}
	}
	for _, we := range ws.foreign {
		if we.FD >= 0 {
			s.Kernel.Close(we.FD)
		}
	}
}
