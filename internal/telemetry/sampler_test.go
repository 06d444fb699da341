package telemetry

import (
	"math"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"hetpapi/internal/power"
	"hetpapi/internal/scenario"
	"hetpapi/internal/trace"
)

// refCollector is the sampling of the former telemetry.Collector, kept
// verbatim as the reference the per-CPU form is pinned to. It samples
// every tick, at base + (sim time - run start).
type refCollector struct {
	store    *Store
	machine  string
	baseSec  float64
	colNames []string
	fdNames  map[int]string
}

func (c *refCollector) Hook() scenario.StepHook {
	return func(ctx *scenario.Context) {
		now := ctx.Sim.Now() - ctx.StartSec
		c.sample(ctx, c.baseSec+now)
	}
}

func (c *refCollector) sample(ctx *scenario.Context, t float64) {
	s := ctx.Sim
	ncpu := s.HW.NumCPUs()
	if c.colNames == nil {
		c.colNames = trace.ColumnNames(ncpu)
	}
	for cpu := 0; cpu < ncpu; cpu++ {
		c.store.Append(Key{c.machine, c.colNames[1+cpu]}, t, s.CurFreqMHz(cpu))
	}
	c.store.Append(Key{c.machine, "temp_c"}, t, s.Thermal.TempC())
	c.store.Append(Key{c.machine, "energy_j"}, t, s.Power.EnergyJ(power.DomainPkg))
	c.store.Append(Key{c.machine, "power_w"}, t, s.Power.PkgPowerW())
	c.store.Append(Key{c.machine, "wall_w"}, t, s.Power.WallPowerW())
	for _, we := range ctx.Wide {
		if we.Dead {
			continue // CPU hotplugged off; the series resumes on reopen
		}
		count, err := s.Kernel.Read(we.FD)
		if err != nil {
			continue
		}
		name, ok := c.fdNames[we.FD]
		if !ok {
			name = CounterSeriesName(we.CPU, we.TypeName, we.Kind.String())
			c.fdNames[we.FD] = name
		}
		c.store.Append(Key{c.machine, name}, t, float64(count.Value))
	}
	if m := ctx.Measure; m != nil && len(m.LastValues) > 0 {
		for i, v := range m.LastValues {
			c.store.Append(Key{c.machine, MeasureSeriesName(m.Names[i], "final")}, t, float64(v.Final))
			c.store.Append(Key{c.machine, MeasureSeriesName(m.Names[i], "error_bound")}, t, float64(v.ErrorBound))
		}
		r := m.Set.Degradations()
		for _, g := range [...]struct {
			name string
			v    int
		}{
			{"busy_retries", r.BusyRetries},
			{"deferred_starts", r.DeferredStarts},
			{"multiplex_fallback", r.MultiplexFallback},
			{"hotplug_rebuilds", r.HotplugRebuilds},
			{"stale_reads", r.StaleReads},
			{"degraded_reads", r.DegradedReads},
		} {
			c.store.Append(Key{c.machine, DegradationSeriesName(g.name)}, t, float64(g.v))
		}
	}
}

// shortSpec is a 0.2 s spin on the homogeneous machine with a PAPI
// probe, so it streams every per-CPU series family.
func shortSpec() scenario.Spec {
	return scenario.Spec{
		Name:    "short-measure",
		Machine: "homogeneous",
		TickSec: 0.01,
		Workloads: []scenario.WorkloadSpec{
			{Kind: scenario.WorkloadSpin, Name: "spin", Seconds: 0.2, CPUs: []int{0}},
		},
		Measure: &scenario.MeasureSpec{
			Workload: 0,
			Events:   []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"},
		},
	}
}

// cadenceTimes applies the sampling rule to a run's tick times: sample
// the first tick, then every period of simulated time; when a sample
// tick is already past the next due time, the due time restarts one
// period after it, so no tick samples twice.
func cadenceTimes(ticks []float64, period float64) []float64 {
	var out []float64
	next := math.Inf(-1)
	for _, t := range ticks {
		if len(out) == 0 {
			next = t
		}
		if t < next {
			continue
		}
		out = append(out, t)
		if next += period; next <= t {
			next = t + period
		}
	}
	return out
}

// times returns the sample times of machine m's series.
func times(st *Store, series string) []float64 {
	pts, _ := st.Snapshot(Key{"m", series})
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.TimeSec
	}
	return out
}

// TestPerCPUHookMatchesCollector pins the per-CPU form to the former
// Collector. In one run the reference samples every tick beside the new
// hook; both must produce the same series names, every point the hook
// appends must equal the reference's point of the same series and time
// bit for bit, and the hook must sample exactly on the cadence rule's
// ticks. homogeneous-powercap covers a power-capped run,
// biglittle-hotplug dead CPUs after a hotplug and a probe under
// counter steal, and the short spec a probe on a 1 Hz default cadence.
func TestPerCPUHookMatchesCollector(t *testing.T) {
	var specs []scenario.Spec
	for _, name := range []string{"homogeneous-powercap", "biglittle-hotplug"} {
		spec, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	specs = append(specs, shortSpec())
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			// The reference's rings hold every 1 ms tick of a 15 s run.
			refStore := NewStore(Config{Capacity: 1 << 14, Downsample: 1, Shards: 1})
			store := NewStore(Config{Capacity: 4096, Downsample: 1, Shards: 1})
			ref := &refCollector{store: refStore, machine: "m", fdNames: map[int]string{}}
			st := NewStreamer(store, 0)
			spec.StepHooks = []scenario.StepHook{ref.Hook(), st.HookFor("m", spec.Name, &spec, true)}
			res, err := scenario.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || len(res.Violations) > 0 {
				t.Fatalf("run completed=%v violations=%v", res.Completed, res.Violations)
			}

			names := store.SeriesOf("m")
			if want := refStore.SeriesOf("m"); !reflect.DeepEqual(names, want) {
				t.Fatalf("series names differ:\n got %v\nwant %v", names, want)
			}
			points := 0
			for _, name := range names {
				want, _ := refStore.Snapshot(Key{"m", name})
				at := make(map[float64]float64, len(want))
				for _, p := range want {
					at[p.TimeSec] = p.Value
				}
				got, _ := store.Snapshot(Key{"m", name})
				for _, p := range got {
					v, ok := at[p.TimeSec]
					if !ok {
						t.Fatalf("%s: point at %v has no reference point", name, p.TimeSec)
					}
					if math.Float64bits(v) != math.Float64bits(p.Value) {
						t.Fatalf("%s at %v: %v, reference %v", name, p.TimeSec, p.Value, v)
					}
				}
				points += len(got)
			}

			// The reference's power_w holds every tick's time.
			period := spec.SamplePeriodSec
			if period <= 0 {
				period = 1
			}
			wantTimes := cadenceTimes(times(refStore, "power_w"), period)
			if gotTimes := times(store, "power_w"); !reflect.DeepEqual(gotTimes, wantTimes) {
				t.Fatalf("sample times %v, cadence rule gives %v", gotTimes, wantTimes)
			}
			o := st.SelfOverhead()
			if o.Machines != 1 || o.Samples != int64(len(wantTimes)) || o.Points != int64(points) {
				t.Fatalf("ledger %+v, want 1 machine, %d samples, %d points", o, len(wantTimes), points)
			}
			if meta := store.Meta("m"); meta != (MachineMeta{Template: spec.Name, Model: spec.Machine}) {
				t.Fatalf("machine meta %+v", meta)
			}
		})
	}
}

// TestPerCPUHookRebasedKeepsTimeMonotonic runs the per-CPU hook in loop
// mode, as hetpapid does: each run's hook is built after SetBaseSec
// advanced the axis by the previous run's simulated time, so every
// series stays strictly increasing across the run boundary.
func TestPerCPUHookRebasedKeepsTimeMonotonic(t *testing.T) {
	store := NewStore(Config{Capacity: 4096})
	st := NewStreamer(store, 0.05)
	base := 0.0
	for run := 0; run < 3; run++ {
		spec := shortSpec()
		st.SetBaseSec(base)
		spec.StepHooks = []scenario.StepHook{st.HookFor("m", spec.Name, &spec, true)}
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		base += res.ElapsedSec
	}
	names := store.SeriesOf("m")
	if len(names) < 10 {
		t.Fatalf("series %v", names)
	}
	for _, name := range names {
		pts, _ := store.Snapshot(Key{"m", name})
		if len(pts) < 12 {
			t.Fatalf("%s holds %d points over three runs", name, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].TimeSec <= pts[i-1].TimeSec {
				t.Fatalf("%s went back in time at %d: %v after %v", name, i, pts[i].TimeSec, pts[i-1].TimeSec)
			}
		}
	}
	if max := st.MaxSec(); max <= 2*0.2 || max > base {
		t.Fatalf("MaxSec %v outside (0.4, %v]", max, base)
	}
}

// TestMachinesReportsStreamerLedger pins the /machines entry of a
// scenario machine: its identity, run count and its streamer's ledger.
// The two wall-clock fields are masked; everything else is exact.
func TestMachinesReportsStreamerLedger(t *testing.T) {
	store := NewStore(Config{})
	st := NewStreamer(store, 0)
	srv := NewServer(store, 0)
	spec := shortSpec()
	srv.Register(spec.Name, spec.Name, spec.Machine, st)
	for run := 0; run < 2; run++ {
		s := spec
		s.StepHooks = []scenario.StepHook{st.HookFor(spec.Name, spec.Name, &spec, true)}
		srv.SetRunning(spec.Name, true)
		if _, err := scenario.Run(s); err != nil {
			t.Fatal(err)
		}
		srv.SetRunning(spec.Name, false)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/machines", nil))
	o := st.SelfOverhead()
	if o.IngestSec <= 0 || o.NsPerPoint <= 0 {
		t.Fatalf("ledger cost empty: %+v", o)
	}
	wallClock := regexp.MustCompile(`("(ingest_sec|ns_per_point)": )[0-9.e+-]+`)
	got := wallClock.ReplaceAllString(rec.Body.String(), "${1}W")
	const want = `[
 {
  "name": "short-measure",
  "scenario": "short-measure",
  "model": "homogeneous",
  "running": false,
  "runs": 2,
  "samples": 2,
  "points": 108,
  "ingest_sec": W,
  "ns_per_point": W
 }
]
`
	if got != want {
		t.Fatalf("/machines body:\n%s\nwant:\n%s", got, want)
	}
}

// TestCollectorIngestsScenario runs a small scenario with a reference
// machine's collector, the per-CPU hook, attached and checks the store
// fills with the expected series shapes: per-CPU frequency under the
// trace column names, the machine scalars, and one counter series per
// CPU/core-type/kind. The ledger must account for every point stored.
func TestCollectorIngestsScenario(t *testing.T) {
	store := NewStore(Config{Capacity: 1024})
	st := NewStreamer(store, 0.02)
	spec := shortSpec()
	spec.Measure = nil
	spec.StepHooks = []scenario.StepHook{st.HookFor("mach", spec.Name, &spec, true)}
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("scenario did not complete")
	}
	o := st.SelfOverhead()
	if o.Samples < 2 {
		t.Fatalf("collector took %d samples", o.Samples)
	}

	names := store.SeriesOf("mach")
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"cpu0_mhz", "temp_c", "energy_j", "power_w", "wall_w"} {
		if !have[want] {
			t.Errorf("missing series %q (have %v)", want, names)
		}
	}
	counters := 0
	for _, n := range names {
		if _, _, _, ok := parseCounterSeries(n); ok {
			counters++
		}
	}
	if counters == 0 {
		t.Fatalf("no counter series ingested; have %v", names)
	}

	// Counters are cumulative: the instruction series must be monotonic
	// and end positive on the busy CPU.
	var pts []Point
	for _, n := range names {
		if strings.HasPrefix(n, "cpu0/") && strings.HasSuffix(n, "/instructions") {
			pts, _ = store.Snapshot(Key{"mach", n})
			break
		}
	}
	if len(pts) < 2 || pts[len(pts)-1].Value <= 0 {
		t.Fatalf("cpu0 instruction counter points %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].TimeSec <= pts[i-1].TimeSec {
			t.Fatalf("instruction series not monotonic at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}

	// Self-overhead gauges must be live and count what the store holds.
	if o.IngestSec <= 0 || o.NsPerPoint <= 0 {
		t.Fatalf("overhead gauges dead: ingest=%g ns/point=%g", o.IngestSec, o.NsPerPoint)
	}
	stored := 0
	for _, n := range names {
		stored += store.Len(Key{"mach", n})
	}
	if o.Points != int64(stored) || o.Rejected != 0 {
		t.Fatalf("ledger %+v, store holds %d points", o, stored)
	}
	if st.MaxSec() <= 0 {
		t.Fatalf("sim coverage %g", st.MaxSec())
	}
}

// TestCollectorExportsMeasureSeries attaches a measurement probe to the
// scenario and checks the per-CPU hook streams the probe's per-event
// values as measure/<event>/<field> series and the graceful-degradation
// tallies as degradation/<counter> series.
func TestCollectorExportsMeasureSeries(t *testing.T) {
	store := NewStore(Config{Capacity: 1024})
	st := NewStreamer(store, 0.02)
	spec := shortSpec()
	spec.StepHooks = []scenario.StepHook{st.HookFor("mach", spec.Name, &spec, true)}
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("scenario did not complete")
	}
	for _, ev := range spec.Measure.Events {
		for _, field := range []string{"final", "error_bound"} {
			k := Key{"mach", MeasureSeriesName(ev, field)}
			pts, ok := store.Snapshot(k)
			if !ok || len(pts) == 0 {
				t.Fatalf("missing measure series %s (have %v)", k, store.SeriesOf("mach"))
			}
			if field == "final" {
				if last := pts[len(pts)-1].Value; last <= 0 {
					t.Errorf("%s final value %g not positive", ev, last)
				}
				for i := 1; i < len(pts); i++ {
					if pts[i].Value < pts[i-1].Value {
						t.Errorf("%s final series not monotonic at %d: %g -> %g",
							ev, i, pts[i-1].Value, pts[i].Value)
					}
				}
			}
		}
	}
	for _, ctr := range []string{
		"busy_retries", "deferred_starts", "multiplex_fallback",
		"hotplug_rebuilds", "stale_reads", "degraded_reads",
	} {
		if _, ok := store.Snapshot(Key{"mach", DegradationSeriesName(ctr)}); !ok {
			t.Errorf("missing degradation series %q", ctr)
		}
	}
}
