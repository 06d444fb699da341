package calibration

import (
	"math"
	"testing"

	"hetpapi/internal/hw"
)

// TestFitRecoversPerturbedModel is the package's acceptance gate: measure
// targets on the pristine registry model, perturb every calibratable
// parameter by [0.8, 1.25], and require the fit to bring every observable
// back within 2% of the published targets.
func TestFitRecoversPerturbedModel(t *testing.T) {
	for _, name := range []string{"raptorlake", "orangepi800"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			src, err := hw.LookupModel(name)
			if err != nil {
				t.Fatal(err)
			}
			targets, err := MeasureTargets(src.Name, src.Make)
			if err != nil {
				t.Fatal(err)
			}
			perturbed := Perturb(src.Make(), 42)
			rep, err := Fit(targets, perturbed, Options{TolRel: 0.02})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Converged {
				t.Fatalf("fit did not converge: max residual %.4f", rep.MaxResidual)
			}
			if rep.MaxResidual > 0.02 {
				t.Fatalf("max residual %.4f exceeds 2%%", rep.MaxResidual)
			}
			pristine := src.Make()
			for _, tr := range rep.Types {
				if !tr.Converged {
					t.Errorf("%s: not converged after %d iters (residual %.4f)", tr.TypeName, tr.Iters, tr.Residual)
				}
				// The identifiable parameters must come back close to the
				// pristine values, not merely match the observables.
				for i := range pristine.Types {
					if pristine.Types[i].Name != tr.TypeName {
						continue
					}
					want := ParamsOf(&pristine.Types[i])
					checkClose(t, tr.TypeName+" BaseIPC", tr.Fitted.BaseIPC, want.BaseIPC, 0.05)
					checkClose(t, tr.TypeName+" LLCMissPenaltyCycles", tr.Fitted.LLCMissPenaltyCycles, want.LLCMissPenaltyCycles, 0.10)
					checkClose(t, tr.TypeName+" HPLEfficiency", tr.Fitted.HPLEfficiency, want.HPLEfficiency, 0.05)
					checkClose(t, tr.TypeName+" DynWattsAtMax", tr.Fitted.DynWattsAtMax, want.DynWattsAtMax, 0.10)
				}
			}
		})
	}
}

// TestMeasureTargetsDeterministic: the published-target measurement must
// be a pure function of the model.
func TestMeasureTargetsDeterministic(t *testing.T) {
	src, _ := hw.LookupModel("dimensity9000")
	a, err := MeasureTargets(src.Name, src.Make)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureTargets(src.Name, src.Make)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Types) != len(b.Types) {
		t.Fatalf("type count differs: %d vs %d", len(a.Types), len(b.Types))
	}
	for i := range a.Types {
		if a.Types[i].Target != b.Types[i].Target {
			t.Errorf("%s: targets differ: %+v vs %+v", a.Types[i].TypeName, a.Types[i].Target, b.Types[i].Target)
		}
	}
}

// TestPerturbDeterministicAndBounded: same seed, same machine; factors
// stay in the documented band and the efficiency stays legal.
func TestPerturbDeterministicAndBounded(t *testing.T) {
	src, _ := hw.LookupModel("raptorlake")
	m := src.Make()
	a, b := Perturb(m, 7), Perturb(m, 7)
	for i := range a.Types {
		if ParamsOf(&a.Types[i]) != ParamsOf(&b.Types[i]) {
			t.Fatalf("perturbation not deterministic for type %d", i)
		}
		orig, got := ParamsOf(&m.Types[i]), ParamsOf(&a.Types[i])
		for _, pair := range [][2]float64{
			{orig.BaseIPC, got.BaseIPC},
			{orig.LLCMissPenaltyCycles, got.LLCMissPenaltyCycles},
			{orig.DynWattsAtMax, got.DynWattsAtMax},
		} {
			ratio := pair[1] / pair[0]
			if ratio < 0.8-1e-9 || ratio > 1.25+1e-9 {
				t.Errorf("type %d: perturbation ratio %.3f outside [0.8, 1.25]", i, ratio)
			}
		}
		if got.HPLEfficiency <= 0 || got.HPLEfficiency > 1 {
			t.Errorf("type %d: perturbed efficiency %.3f illegal", i, got.HPLEfficiency)
		}
	}
	if ParamsOf(&Perturb(m, 8).Types[0]) == ParamsOf(&a.Types[0]) {
		t.Error("different seeds produced identical perturbations")
	}
}

func checkClose(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		return
	}
	if r := math.Abs(got-want) / want; r > tol {
		t.Errorf("%s: fitted %.4f vs pristine %.4f (rel %.3f > %.2f)", what, got, want, r, tol)
	}
}
