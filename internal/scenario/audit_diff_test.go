package scenario_test

// Differential and mutation suite for the gated audit. Every input runs
// twice: once with Standard(), whose counter-monotonic and
// core-type-isolation re-read only the counters the kernel updated and
// whose freq-envelope walks the CPUs only when a frequency or a cap bound
// changed, and once with scenario.SweepStandard(), which swaps in the
// every-tick full sweeps they replaced (audit_sweep_test.go) under the
// same names. Violation lists, digests and fault-plan traces must be
// byte-identical.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"hetpapi/internal/faults"
	"hetpapi/internal/fleet"
	"hetpapi/internal/hw"
	"hetpapi/internal/scenario"
)

// auditRun is what the differential compares between the two audits.
type auditRun struct {
	violations []scenario.Violation
	digest     string
	faultTrace string
}

// String renders the run with exact float bits, so that equal strings
// mean byte-identical runs.
func (r auditRun) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digest %s\n", r.digest)
	for _, v := range r.violations {
		fmt.Fprintf(&b, "violation %s at %s: %s\n", v.Invariant, strconv.FormatFloat(v.AtSec, 'g', -1, 64), v.Detail)
	}
	fmt.Fprintf(&b, "faults\n%s\n", r.faultTrace)
	return b.String()
}

// runAudited runs a clone of spec under invs. newPlan, when non-nil,
// builds a fresh fault plan that a step hook attaches at the first tick,
// as fleet.Run and FuzzFaultPlan attach theirs.
func runAudited(t *testing.T, spec scenario.Spec, invs []scenario.Invariant, newPlan func() *faults.Plan) auditRun {
	t.Helper()
	spec = spec.Clone()
	spec.Invariants = invs
	var plan *faults.Plan
	if newPlan != nil {
		plan = newPlan()
		attached := false
		spec.StepHooks = append(spec.StepHooks, func(c *scenario.Context) {
			if !attached {
				c.Sim.Kernel.AttachFaults(plan)
				attached = true
			}
		})
	}
	res, err := scenario.Run(spec)
	if res == nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return auditRun{violations: res.Violations, digest: res.Digest, faultTrace: plan.TraceString()}
}

// diffAudits runs spec under both audits, fails on any difference and
// returns the gated run.
func diffAudits(t *testing.T, spec scenario.Spec, newPlan func() *faults.Plan) auditRun {
	t.Helper()
	gated := runAudited(t, spec, scenario.Standard(), newPlan)
	sweep := runAudited(t, spec, scenario.SweepStandard(), newPlan)
	if g, s := gated.String(), sweep.String(); g != s {
		t.Errorf("%s: gated audit differs from the full sweep\n--- gated\n%s--- sweep\n%s", spec.Name, g, s)
	}
	return gated
}

// faultFuzzSpec rebuilds FuzzFaultPlan's audited scenario (see
// internal/faults/fuzz_test.go) without its attach hook; runAudited adds
// one.
func faultFuzzSpec() scenario.Spec {
	return scenario.Spec{
		Name:            "fault-fuzz",
		Machine:         "homogeneous",
		Seed:            1,
		MaxSeconds:      1.5,
		SamplePeriodSec: 0.1,
		Workloads: []scenario.WorkloadSpec{
			{Kind: scenario.WorkloadSpin, Name: "spin", Seconds: 0.8, CPUs: []int{0, 3}},
		},
		Measure: &scenario.MeasureSpec{
			Workload: 0,
			Events:   []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"},
		},
	}
}

// TestGatedAuditMatchesSweep covers every reference and validation
// scenario, FuzzFaultPlan's seed corpus and a 64-machine chaos fleet.
func TestGatedAuditMatchesSweep(t *testing.T) {
	t.Run("specs", func(t *testing.T) {
		for _, spec := range append(scenario.Reference(), scenario.Validation()...) {
			spec := spec
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				diffAudits(t, spec, nil)
			})
		}
	})
	t.Run("fault-plans", func(t *testing.T) {
		// FuzzFaultPlan's seed corpus: (seed, maxEvents) pairs and the
		// profile it derives from them.
		seeds := []struct {
			seed      int64
			maxEvents uint8
		}{{1, 4}, {7, 8}, {42, 1}, {-3, 12}}
		applied := 0
		for _, s := range seeds {
			prof := faults.Profile{
				HorizonSec: 1.0,
				PMUs:       []uint32{hw.Homogeneous().Types[0].PMU.PerfType},
				CPUs:       []int{1, 2},
				MaxEvents:  int(s.maxEvents%12) + 1,
			}
			run := diffAudits(t, faultFuzzSpec(), func() *faults.Plan { return faults.Random(s.seed, prof) })
			if run.faultTrace != "" {
				applied++
			}
		}
		if applied == 0 {
			t.Error("no fault plan applied a transition")
		}
	})
	t.Run("fleet", func(t *testing.T) {
		f, err := fleet.Generate(fleet.GenConfig{
			Machines:   64,
			Seed:       7,
			StaggerSec: 0.5,
			Chaos:      &fleet.ChaosConfig{IncidentRate: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		applied := 0
		for i := range f.Machines {
			ms := &f.Machines[i]
			var newPlan func() *faults.Plan
			if ms.ChaosProfile != nil {
				newPlan = func() *faults.Plan { return faults.Random(ms.ChaosSeed, *ms.ChaosProfile) }
			}
			if diffAudits(t, ms.Spec, newPlan).faultTrace != "" {
				applied++
			}
		}
		if applied == 0 {
			t.Error("no chaos plan applied a transition")
		}
	})
}

// countingWide returns the live harness counter with the largest count.
func countingWide(t *testing.T, c *scenario.Context) int {
	best, bestVal := -1, uint64(0)
	for i := range c.Wide {
		if c.Wide[i].Dead {
			continue
		}
		if v, err := c.Sim.Kernel.Read(c.Wide[i].FD); err == nil && v.Value > bestVal {
			best, bestVal = c.Wide[i].FD, v.Value
		}
	}
	if best < 0 {
		t.Fatal("no harness counter is counting")
	}
	return best
}

// TestGatedAuditCatchesMutations breaks each hybrid reference scenario
// once per gated invariant, from a step hook: a Kernel.Reset of the
// busiest harness counter at 0.5 s, a foreign-probe slot repointed at
// that counter at 0.7 s, and a P-class user cap of 1 MHz, below every
// OPP, at 0.9 s. Both audits must report the break with identical
// violation lists: the counter breaks on the next tick, the cap on the
// one after, because freq-envelope allows the previous tick's cap for a
// tick.
func TestGatedAuditCatchesMutations(t *testing.T) {
	mutations := []struct {
		name      string
		atSec     float64
		invariant string
		ticks     int // from the break to the tick that must report it
		apply     func(*testing.T, *scenario.Context)
	}{
		{"reset-counter", 0.5, "counter-monotonic", 1, func(t *testing.T, c *scenario.Context) {
			if err := c.Sim.Kernel.Reset(countingWide(t, c)); err != nil {
				t.Fatal(err)
			}
		}},
		{"repoint-foreign", 0.7, "core-type-isolation", 1, func(t *testing.T, c *scenario.Context) {
			for i := range c.Foreign {
				if !c.Foreign[i].Dead {
					c.Foreign[i].FD = countingWide(t, c)
					return
				}
			}
			t.Fatal("no live foreign probe")
		}},
		{"cap-below-opp", 0.9, "freq-envelope", 2, func(t *testing.T, c *scenario.Context) {
			c.Sim.Governor.SetUserCapMHz(hw.Performance, 1)
		}},
	}
	for _, spec := range scenario.Reference() {
		if len(scenario.Machines[spec.Machine]().Types) < 2 {
			continue
		}
		for _, mut := range mutations {
			spec, mut := spec, mut
			t.Run(spec.Name+"/"+mut.name, func(t *testing.T) {
				t.Parallel()
				var runs [2]auditRun
				var brokeAt float64
				for i, invs := range [][]scenario.Invariant{scenario.Standard(), scenario.SweepStandard()} {
					s := spec.Clone()
					done := false
					s.StepHooks = append(s.StepHooks, func(c *scenario.Context) {
						if now := c.Sim.Now() - c.StartSec; !done && now >= mut.atSec-1e-9 {
							mut.apply(t, c)
							brokeAt, done = now, true
						}
					})
					runs[i] = runAudited(t, s, invs, nil)
				}
				if g, s := runs[0].String(), runs[1].String(); g != s {
					t.Fatalf("gated audit differs from the full sweep\n--- gated\n%s--- sweep\n%s", g, s)
				}
				t.Logf("both audits:\n%s", runs[0])
				tick := spec.TickSec
				if tick <= 0 {
					tick = 0.001
				}
				for _, v := range runs[0].violations {
					if v.Invariant == mut.invariant {
						if want := brokeAt + float64(mut.ticks)*tick; math.Abs(v.AtSec-want) > 1e-9 {
							t.Fatalf("%s reported at %.6f s, want %.6f s, %d tick(s) after the break at %.6f s",
								v.Invariant, v.AtSec, want, mut.ticks, brokeAt)
						}
						return
					}
				}
				t.Fatalf("%s did not catch the break at %.3f s: %v", mut.invariant, brokeAt, runs[0].violations)
			})
		}
	}
}
