package scenario_test

import (
	"errors"
	"strings"
	"testing"

	"hetpapi/internal/hw"
	"hetpapi/internal/scenario"
	"hetpapi/internal/trace"
)

// TestReferenceScenariosClean runs every committed reference scenario and
// asserts the full standard invariant set holds. The subtests run in
// parallel on purpose: under -race this also exercises concurrent harness
// runs against independent machines.
func TestReferenceScenariosClean(t *testing.T) {
	for _, spec := range scenario.Reference() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			res, err := scenario.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Errorf("did not complete within %.0fs", spec.MaxSeconds)
			}
			if len(res.Samples) < 2 {
				t.Errorf("only %d trace samples", len(res.Samples))
			}
			if res.EnergyJ <= 0 {
				t.Errorf("energy %.3f J, want > 0", res.EnergyJ)
			}
			var instr float64
			for _, tc := range res.ByType {
				instr += tc.Instructions
			}
			if instr <= 0 {
				t.Error("no instructions counted by the system-wide events")
			}
		})
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	run := func(seed int64) string {
		t.Helper()
		res, err := scenario.Run(scenario.Spec{
			Name:            "seed-sweep",
			Machine:         "raptorlake",
			Seed:            seed,
			MaxSeconds:      6,
			SamplePeriodSec: 0.25,
			Workloads: []scenario.WorkloadSpec{
				{Kind: scenario.WorkloadLoop, Name: "roam", InstrPerRep: 1e6, Reps: 4000},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	if a, b := run(1), run(2); a == b {
		t.Errorf("seeds 1 and 2 produced identical digests (%s); scheduler perturbation not seeded?", a[:12])
	}
	if a, b := run(1), run(1); a != b {
		t.Errorf("same seed produced different digests: %s vs %s", a[:12], b[:12])
	}
}

func TestInjectFreqCapTakesEffect(t *testing.T) {
	const capMHz = 1200
	res, err := scenario.Run(scenario.Spec{
		Name:            "freq-cap",
		Machine:         "homogeneous",
		Seed:            1,
		MaxSeconds:      3,
		SamplePeriodSec: 0.1,
		Workloads: []scenario.WorkloadSpec{
			{Kind: scenario.WorkloadSpin, Name: "spin", CPUs: []int{0}, Seconds: 2},
		},
		Injects: []scenario.Inject{
			{AtSec: 1, Kind: scenario.InjectFreqCap, Class: hw.Performance, MHz: capMHz},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawFast bool
	for _, s := range res.Samples {
		f := s.FreqMHz[0]
		if s.TimeSec < 0.9 && f > capMHz+100 {
			sawFast = true
		}
		if s.TimeSec > 1.2 && f > capMHz+50+1e-9 { // half an OPP step of slack
			t.Errorf("t=%.1fs: cpu0 at %.0f MHz despite the %d MHz cap", s.TimeSec, f, capMHz)
		}
	}
	if !sawFast {
		t.Error("cpu0 never exceeded the cap before it was injected; test is vacuous")
	}
}

func TestInjectPowerLimitReducesEnergy(t *testing.T) {
	base := scenario.Spec{
		Name:            "power-limit",
		Machine:         "homogeneous",
		Seed:            1,
		MaxSeconds:      5,
		SamplePeriodSec: 0.5,
		Workloads: []scenario.WorkloadSpec{
			// One spin per physical core, so the package draws well above
			// the injected limit when unconstrained.
			{Kind: scenario.WorkloadSpin, Name: "spin0", CPUs: []int{0}, Seconds: 4},
			{Kind: scenario.WorkloadSpin, Name: "spin1", CPUs: []int{2}, Seconds: 4},
			{Kind: scenario.WorkloadSpin, Name: "spin2", CPUs: []int{4}, Seconds: 4},
			{Kind: scenario.WorkloadSpin, Name: "spin3", CPUs: []int{6}, Seconds: 4},
		},
	}
	free, err := scenario.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	capped := base
	capped.Injects = []scenario.Inject{
		{AtSec: 1, Kind: scenario.InjectPowerLimit, PL1W: 12, PL2W: 14},
	}
	limited, err := scenario.Run(capped)
	if err != nil {
		t.Fatal(err)
	}
	if limited.EnergyJ >= free.EnergyJ {
		t.Errorf("12 W-capped run used %.1f J, uncapped %.1f J; the power limit had no effect",
			limited.EnergyJ, free.EnergyJ)
	}
}

func TestInjectHeatTriggersThrottle(t *testing.T) {
	base := scenario.Spec{
		Name:            "heat",
		Machine:         "orangepi800",
		Seed:            1,
		MaxSeconds:      8,
		SamplePeriodSec: 0.25,
		Workloads: []scenario.WorkloadSpec{
			{Kind: scenario.WorkloadSpin, Name: "spin", CPUs: []int{4, 5}, Seconds: 6},
		},
	}
	cool, err := scenario.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	heated := base
	heated.Injects = []scenario.Inject{{AtSec: 1, Kind: scenario.InjectHeat, HeatJ: 30}}
	hot, err := scenario.Run(heated)
	if err != nil {
		t.Fatal(err)
	}
	hotMax, coolMax := trace.Summarize(hot.Samples).MaxTempC, trace.Summarize(cool.Samples).MaxTempC
	if hotMax <= coolMax {
		t.Errorf("heat injection did not raise the peak: %.1f C vs %.1f C", hotMax, coolMax)
	}
	// The step_wise throttle must pull the big cores below their max.
	var minBig = 1e18
	for _, s := range hot.Samples {
		if s.TimeSec > 1.5 && s.FreqMHz[4] < minBig {
			minBig = s.FreqMHz[4]
		}
	}
	if minBig >= 1800 {
		t.Errorf("big core never throttled below max (min observed %.0f MHz)", minBig)
	}
}

func TestInjectMigrateMovesWork(t *testing.T) {
	// A loop pinned to the LITTLE cluster is migrated to the prime core
	// mid-run: both core types' own-PMU instruction counters must move.
	countingTypes := func(injects []scenario.Inject) map[string]bool {
		t.Helper()
		res, err := scenario.Run(scenario.Spec{
			Name:            "migrate",
			Machine:         "dimensity9000",
			Seed:            1,
			MaxSeconds:      6,
			SamplePeriodSec: 0.5,
			Workloads: []scenario.WorkloadSpec{
				{Kind: scenario.WorkloadLoop, Name: "mover", CPUs: []int{0, 1, 2, 3}, InstrPerRep: 1e6, Reps: 4000},
			},
			Injects: injects,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for name, tc := range res.ByType {
			if tc.Instructions > 0 {
				got[name] = true
			}
		}
		return got
	}
	pinned := countingTypes(nil)
	if len(pinned) != 1 || !pinned["LITTLE"] {
		t.Fatalf("pinned run counted on %v, want only LITTLE", pinned)
	}
	moved := countingTypes([]scenario.Inject{
		{AtSec: 1, Kind: scenario.InjectMigrate, Workload: 0, CPUs: []int{7}},
	})
	if !moved["LITTLE"] || !moved["prime"] {
		t.Fatalf("migrated run counted on %v, want LITTLE and prime", moved)
	}
}

// TestPerturbedMachineChangesDigest is the golden mechanism's own
// regression test: a one-watt change to a power-model constant must
// produce a different behavior digest for the same scenario.
func TestPerturbedMachineChangesDigest(t *testing.T) {
	var spec scenario.Spec
	for _, ref := range scenario.Reference() {
		if ref.Name == "homogeneous-powercap" {
			spec = ref
			break
		}
	}
	if spec.Machine != "homogeneous" {
		t.Fatalf("homogeneous-powercap not found in Reference()")
	}
	base, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := spec
	perturbed.MachineFn = func() *hw.Machine {
		m := hw.Homogeneous()
		m.Power.UncoreWatts += 1
		return m
	}
	drifted, err := scenario.Run(perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if drifted.Digest == base.Digest {
		t.Error("a +1 W uncore perturbation left the behavior digest unchanged; the golden mechanism is blind")
	}
	if diff := scenario.GoldenOf(base).Diff(scenario.GoldenOf(drifted)); diff == "" {
		t.Error("Golden.Diff reports no difference for a perturbed run")
	}
}

func TestRunOnWarmMachine(t *testing.T) {
	spec := scenario.Spec{
		Name:            "warm",
		Machine:         "homogeneous",
		MaxSeconds:      3,
		SamplePeriodSec: 0.5,
		Workloads: []scenario.WorkloadSpec{
			{Kind: scenario.WorkloadSpin, Name: "spin", CPUs: []int{0}, Seconds: 1},
		},
	}
	s, err := scenario.Boot(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := scenario.RunOn(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := scenario.RunOn(s, spec)
	if err != nil {
		t.Fatalf("second run on the warm machine: %v", err)
	}
	for _, res := range []*scenario.Result{first, second} {
		if !res.Completed || len(res.Violations) != 0 {
			t.Errorf("warm run %s: completed=%v violations=%v", res.Name, res.Completed, res.Violations)
		}
	}
}

// failing is a test invariant that violates on every tick and at the end.
type failing struct{}

func (failing) Name() string                  { return "always-fails" }
func (failing) Check(*scenario.Context) error { return errors.New("tick boom") }
func (failing) Final(*scenario.Context) error { return errors.New("final boom") }

func TestViolationsReportedOncePerInvariant(t *testing.T) {
	res, err := scenario.Run(scenario.Spec{
		Name:            "violating",
		Machine:         "homogeneous",
		MaxSeconds:      1,
		SamplePeriodSec: 0.5,
		Workloads: []scenario.WorkloadSpec{
			{Kind: scenario.WorkloadSpin, Name: "spin", CPUs: []int{0}, Seconds: 0.5},
		},
		// Two invariants sharing a name stop together.
		Invariants: []scenario.Invariant{failing{}, failing{}},
	})
	if err == nil {
		t.Fatal("Run returned nil error despite a failing invariant")
	}
	if res == nil {
		t.Fatal("Run must return the Result alongside the violation error")
	}
	if len(res.Violations) != 1 {
		t.Fatalf("got %d violations, want exactly 1 (first per invariant): %v", len(res.Violations), res.Violations)
	}
	v := res.Violations[0]
	if v.Invariant != "always-fails" || v.Detail != "tick boom" {
		t.Errorf("unexpected violation %+v", v)
	}
	if !strings.Contains(err.Error(), "tick boom") {
		t.Errorf("error %q does not carry the violation detail", err)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec scenario.Spec
		want string
	}{
		{"unknown machine", scenario.Spec{Name: "x", Machine: "pentium4"}, "unknown machine"},
		{"hpl without cpus", scenario.Spec{
			Name: "x", Machine: "homogeneous",
			Workloads: []scenario.WorkloadSpec{{Kind: scenario.WorkloadHPL, N: 256, NB: 32}},
		}, "explicit CPU list"},
		{"cpu out of range", scenario.Spec{
			Name: "x", Machine: "orangepi800",
			Workloads: []scenario.WorkloadSpec{{Kind: scenario.WorkloadSpin, Seconds: 1, CPUs: []int{99}}},
		}, "out of range"},
		{"unknown workload kind", scenario.Spec{
			Name: "x", Machine: "homogeneous",
			Workloads: []scenario.WorkloadSpec{{Kind: "fortran"}},
		}, "unknown kind"},
		{"migrate target out of range", scenario.Spec{
			Name: "x", Machine: "homogeneous",
			Workloads: []scenario.WorkloadSpec{{Kind: scenario.WorkloadSpin, Seconds: 1}},
			Injects:   []scenario.Inject{{AtSec: 1, Kind: scenario.InjectMigrate, Workload: 5, CPUs: []int{0}}},
		}, "migrate inject targets workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := scenario.Run(tc.spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}
