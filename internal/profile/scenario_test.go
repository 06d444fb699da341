package profile

// Integration of the profiler with the scenario harness: attaching the
// collector must be pure observation (golden digests unchanged), and its
// statistical attribution must agree with the span-trace analyzer's exact
// attribution within the reported error bound — two independent
// observability layers cross-checking each other.

import (
	"bytes"
	"testing"

	"hetpapi/internal/scenario"
	"hetpapi/internal/spantrace"
	"hetpapi/internal/spantrace/analyze"
)

const goldenDir = "../scenario/testdata/golden"

func refSpec(t *testing.T, name string) scenario.Spec {
	t.Helper()
	for _, spec := range scenario.Reference() {
		if spec.Name == name {
			return spec
		}
	}
	t.Fatalf("no reference scenario %q", name)
	return scenario.Spec{}
}

// profiledRun runs a spec with a collector hooked in and returns the
// result, the finished profile and the collector.
func profiledRun(t *testing.T, spec scenario.Spec, cfg Config) (*scenario.Result, *Profile, *Collector) {
	t.Helper()
	col := NewCollector(nil, cfg)
	spec.StepHooks = append(spec.StepHooks, col.Hook())
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, col.Finish(), col
}

// TestProfilerKeepsGoldenDigest pins the observer guarantee across every
// reference scenario, fault scenarios included: a run with the profiler
// draining per-task sample rings digests identically to the committed
// golden of an unprofiled run.
func TestProfilerKeepsGoldenDigest(t *testing.T) {
	for _, spec := range scenario.Reference() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, prof, _ := profiledRun(t, spec, Config{})
			golden, err := scenario.LoadGolden(scenario.GoldenPath(goldenDir, res.Name))
			if err != nil {
				t.Fatal(err)
			}
			if diff := golden.Diff(scenario.GoldenOf(res)); diff != "" {
				t.Fatalf("profiling changed the run's golden digest:\n%s", diff)
			}
			if prof.Emitted == 0 {
				t.Fatal("profiler saw no samples")
			}
		})
	}
}

// agreementScenarios are the non-fault reference runs: with no injected
// counter steals or hotplug events, every core type's sample stream stays
// intact and the statistical attribution must match the span trace.
var agreementScenarios = []string{
	"raptorlake-hpl-pcores",
	"orangepi-thermal-throttle",
	"dimensity-mixed-injects",
	"homogeneous-powercap",
}

// TestSampledAttributionAgreesWithSpans is the cross-layer invariant:
// per-core-type busy shares from overflow sampling agree with the span
// recorder's exact exec accounting, within the profile's own error bound.
func TestSampledAttributionAgreesWithSpans(t *testing.T) {
	for _, name := range agreementScenarios {
		t.Run(name, func(t *testing.T) {
			spec := refSpec(t, name)
			rec := spantrace.New(spantrace.Config{TrackCapacity: 1 << 15})
			rec.Enable()
			spec.Tracer = rec
			_, prof, _ := profiledRun(t, spec, Config{})

			var buf bytes.Buffer
			if err := spantrace.WriteJSON(&buf, rec.Snapshot()); err != nil {
				t.Fatal(err)
			}
			tr, err := analyze.Parse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			rep := analyze.Analyze(tr)

			if err := Agree(prof, rep); err != nil {
				t.Fatal(err)
			}
			deltas, bound := CrossCheck(prof, rep)
			if len(deltas) == 0 {
				t.Fatal("no core types to compare")
			}
			if bound <= 0 || bound >= 1 {
				t.Fatalf("implausible error bound %g on a clean run", bound)
			}
			for _, d := range deltas {
				t.Logf("%s (bound %.4f)", d, bound)
			}
		})
	}
}

// TestBufferPressureWidensBound injects sampling-ring pressure into a
// clean scenario: samples must be lost, the loss must scale surviving
// weights, and the reported error bound must widen accordingly.
func TestBufferPressureWidensBound(t *testing.T) {
	clean := refSpec(t, "raptorlake-hpl-pcores")
	_, cleanProf, _ := profiledRun(t, clean, Config{})
	if cleanProf.Lost != 0 {
		t.Fatalf("clean run lost %d samples", cleanProf.Lost)
	}

	squeezed := refSpec(t, "raptorlake-hpl-pcores")
	squeezed.Injects = append(append([]scenario.Inject(nil), squeezed.Injects...),
		scenario.Inject{AtSec: 0.2, Kind: scenario.InjectBufferPressure, Cap: 2})
	_, prof, col := profiledRun(t, squeezed, Config{})
	if prof.Lost == 0 {
		t.Fatal("capped rings lost nothing")
	}
	if prof.ErrorBound() <= cleanProf.ErrorBound() {
		t.Fatalf("bound did not widen: clean %g, squeezed %g",
			cleanProf.ErrorBound(), prof.ErrorBound())
	}
	ovh := col.Overhead()
	if ovh.LostRatio <= 0 {
		t.Fatalf("overhead report missed the loss: %+v", ovh)
	}
	// Lost-sample scaling keeps total weight in the same regime as the
	// clean run (each survivor stands for its ring's dropped records), so
	// heavy ring pressure degrades confidence — the bound — rather than
	// collapsing the attribution totals.
	if prof.TotalWeight() < cleanProf.TotalWeight()/4 {
		t.Fatalf("scaled weight collapsed: clean %g, squeezed %g",
			cleanProf.TotalWeight(), prof.TotalWeight())
	}
}

// TestCollectorRebindsAcrossRuns reuses one collector for two scenario
// runs, the hetpapid loop shape: the hook must detect the fresh machine,
// archive the finished first profile as LastRun and start a new one.
func TestCollectorRebindsAcrossRuns(t *testing.T) {
	col := NewCollector(nil, Config{})
	spec := refSpec(t, "homogeneous-powercap")
	spec.StepHooks = append(spec.StepHooks, col.Hook())
	if _, err := scenario.Run(spec); err != nil {
		t.Fatal(err)
	}
	if col.LastRun() != nil {
		t.Fatal("LastRun set before the second run archived the first")
	}
	firstLive := col.Snapshot()
	if firstLive.Emitted == 0 {
		t.Fatal("first run produced no samples")
	}

	if _, err := scenario.Run(spec); err != nil {
		t.Fatal(err)
	}
	archived := col.LastRun()
	if archived == nil {
		t.Fatal("first run was not archived on rebind")
	}
	// The archive includes the final drain at rebind, so it holds at
	// least what the mid-flight snapshot saw.
	if archived.Emitted < firstLive.Emitted {
		t.Fatalf("archived profile emitted %d, want >= %d", archived.Emitted, firstLive.Emitted)
	}
	if archived.DurationSec <= 0 {
		t.Fatalf("archived duration = %g", archived.DurationSec)
	}
	second := col.Finish()
	if second.Emitted == 0 {
		t.Fatal("second run produced no samples")
	}
	if got := col.EmittedTotal(); got != archived.Emitted+second.Emitted {
		t.Fatalf("emitted total %d, want %d", got, archived.Emitted+second.Emitted)
	}
}
