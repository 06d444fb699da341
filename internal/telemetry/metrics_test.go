package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"hetpapi/internal/scenario"
	"hetpapi/internal/spantrace"
)

// fmtFamily and fmtMetrics are the former /metrics writer of the store
// and per-machine families, one fmt.Sprintf per sample line over the
// sorted Machines and SeriesOf lists: the reference handleMetrics's
// bytes are pinned to. The per-machine hetpapid_* families report each
// registered machine's streamer ledger.
type fmtFamily struct {
	name, help, kind string
	lines            []string
}

func (f *fmtFamily) add(labels string, v float64) {
	f.lines = append(f.lines, fmt.Sprintf("%s{%s} %g", f.name, labels, v))
}

func fmtMetrics(s *Server, w io.Writer) {
	freq := &fmtFamily{name: "hetpapi_cpu_frequency_mhz", help: "Per-CPU frequency during the last tick.", kind: "gauge"}
	temp := &fmtFamily{name: "hetpapi_pkg_temperature_celsius", help: "Package thermal zone temperature.", kind: "gauge"}
	pwr := &fmtFamily{name: "hetpapi_pkg_power_watts", help: "Package power over the last tick.", kind: "gauge"}
	wall := &fmtFamily{name: "hetpapi_wall_power_watts", help: "AC-side wall meter power.", kind: "gauge"}
	energy := &fmtFamily{name: "hetpapi_pkg_energy_joules_total", help: "Cumulative RAPL package energy.", kind: "counter"}
	ctr := &fmtFamily{name: "hetpapi_counter_total", help: "System-wide perf counter value per CPU, core type and event kind.", kind: "counter"}
	degr := &fmtFamily{name: "hetpapi_degradation_total", help: "Graceful-degradation actions performed by the measurement probe, by action.", kind: "counter"}
	runs := &fmtFamily{name: "hetpapid_runs_total", help: "Finished scenario runs.", kind: "counter"}
	samples := &fmtFamily{name: "hetpapid_samples_total", help: "Sampling passes of the machine's streamer.", kind: "counter"}
	points := &fmtFamily{name: "hetpapid_points_total", help: "Series points the machine's streamer appended.", kind: "counter"}
	ingest := &fmtFamily{name: "hetpapid_ingest_seconds_total", help: "Wall-clock seconds spent in telemetry ingestion.", kind: "counter"}
	nsPoint := &fmtFamily{name: "hetpapid_ingest_ns_per_point", help: "Mean ingestion wall time per appended point.", kind: "gauge"}
	spEmit := &fmtFamily{name: "hetpapid_spans_emitted_total", help: "Span-trace events accepted by the machine's recorder.", kind: "counter"}
	spKeep := &fmtFamily{name: "hetpapid_spans_retained", help: "Span-trace events currently held in the recorder's rings.", kind: "gauge"}
	spDrop := &fmtFamily{name: "hetpapid_spans_dropped_total", help: "Span-trace events dropped by ring wraparound or rejected as malformed.", kind: "counter"}
	pfEmit := &fmtFamily{name: "hetpapiprof_samples_emitted_total", help: "Overflow sample records retained by the machine's statistical profiler.", kind: "counter"}
	pfLost := &fmtFamily{name: "hetpapiprof_samples_lost_total", help: "Overflow sample records dropped by ring pressure before a drain.", kind: "counter"}

	for _, machine := range s.store.Machines() {
		ml := fmt.Sprintf("machine=%q", machine)
		for _, name := range s.store.SeriesOf(machine) {
			agg, ok := s.store.Aggregate(Key{machine, name})
			if !ok {
				continue
			}
			switch {
			case strings.HasPrefix(name, "cpu") && strings.HasSuffix(name, "_mhz"):
				cpu := strings.TrimSuffix(strings.TrimPrefix(name, "cpu"), "_mhz")
				freq.add(fmt.Sprintf("%s,cpu=%q", ml, cpu), agg.Last)
			case name == "temp_c":
				temp.add(ml, agg.Last)
			case name == "power_w":
				pwr.add(ml, agg.Last)
			case name == "wall_w":
				wall.add(ml, agg.Last)
			case name == "energy_j":
				energy.add(ml, agg.Last)
			case strings.HasPrefix(name, "degradation/"):
				degr.add(fmt.Sprintf("%s,action=%q", ml, strings.TrimPrefix(name, "degradation/")), agg.Last)
			default:
				if cpu, typeName, kind, ok := splitCounterSeries(name); ok {
					ctr.add(fmt.Sprintf("%s,cpu=%q,type=%q,kind=%q", ml, cpu, typeName, kind), agg.Last)
				}
			}
		}
	}

	s.mu.RLock()
	names := make([]string, 0, len(s.machines))
	for name := range s.machines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := s.machines[name]
		ml := fmt.Sprintf("machine=%q", name)
		o := e.streamer.SelfOverhead()
		runs.add(ml, float64(e.runs.Load()))
		samples.add(ml, float64(o.Samples))
		points.add(ml, float64(o.Points))
		ingest.add(ml, o.IngestSec)
		nsPoint.add(ml, o.NsPerPoint)
		if rec := e.recorder(); rec != nil {
			st := rec.Stats()
			spEmit.add(ml, float64(st.Emitted))
			spKeep.add(ml, float64(st.Retained))
			spDrop.add(ml, float64(st.Dropped))
		}
		if col := e.profiler(); col != nil {
			pfEmit.add(ml, float64(col.EmittedTotal()))
			pfLost.add(ml, float64(col.LostTotal()))
		}
	}
	s.mu.RUnlock()

	for _, f := range []*fmtFamily{freq, temp, pwr, wall, energy, ctr, degr, runs, samples, points, ingest, nsPoint, spEmit, spKeep, spDrop, pfEmit, pfLost} {
		if len(f.lines) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, line := range f.lines {
			fmt.Fprintln(w, line)
		}
	}
}

// TestMetricsMatchesFmtReference pins /metrics to the former fmt-based
// writer's bytes on a seeded store whose last values and label values are
// the awkward ones for a float and string formatter: -0, the smallest
// subnormal, 1e21 (where %g switches to an exponent), quotes,
// backslashes, newlines, non-ASCII and invalid UTF-8. It checks a server
// with no registered machines (every per-machine family empty), then
// with two, one whose streamer has sampled a finished run and one
// carrying a span recorder. The hetpapid_http_* tail is pinned to its
// own fmt reference in package httpobs.
func TestMetricsMatchesFmtReference(t *testing.T) {
	st := NewStore(Config{Capacity: 16})
	machines := []string{"m0000", `quo"te`, `back\slash`, "new\nline", "ünïcødé-机器", "bad\xffutf8"}
	lasts := []float64{math.Copysign(0, -1), 5e-324, 1e21, 1e20, 0.1, -3.5, 123456789012, 1e-7, math.MaxFloat64, 49}
	names := []string{
		"power_w", "temp_c", "wall_w", "energy_j", "cpu0_mhz", "cpu11_mhz", `cpu"7"_mhz`,
		DegradationSeriesName("busy_retries"), DegradationSeriesName(`a"b\c`),
		CounterSeriesName(3, "P-core", "instructions"), CounterSeriesName(2, `E "core"`, "llc-misses"),
		"cpu0/P-core/x_mhz", TypeSeriesName("P-core", "instructions"), MeasureSeriesName("PAPI_TOT_CYC", "final"),
		"cpu0/a/b/c",
	}
	for mi, m := range machines {
		for ni, n := range names {
			k := Key{m, n}
			st.Append(k, 0, 1)
			st.Append(k, 1, lasts[(mi+ni)%len(lasts)])
		}
	}
	srv := NewServer(st, 0)
	check := func(when string) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
		var want bytes.Buffer
		fmtMetrics(srv, &want)
		srv.obs.WritePrometheus(&want)
		if got := rec.Body.String(); got != want.String() {
			t.Fatalf("%s: /metrics differs from the fmt writer:\n got:\n%s\nwant:\n%s", when, got, want.String())
		}
	}
	check("no machines")
	sampled := NewStreamer(NewStore(Config{}), 0)
	spec := shortSpec()
	spec.StepHooks = []scenario.StepHook{sampled.HookFor("m0000", "scen", &spec, true)}
	if _, err := scenario.Run(spec); err != nil {
		t.Fatal(err)
	}
	srv.Register("m0000", "scen", "homogeneous", sampled)
	srv.SetRunning("m0000", true)
	srv.SetRunning("m0000", false)
	srv.Register(`col"2`, "scen", "homogeneous", NewStreamer(st, 0))
	rec := spantrace.New(spantrace.Config{TrackCapacity: 2})
	rec.Enable()
	for i := 0; i < 5; i++ {
		rec.Instant(rec.Track("kernel"), "e", "c", float64(i))
	}
	srv.AttachTracer(`col"2`, rec)
	check("two machines, one sampled, one traced")
	// The edge values did reach the exposition.
	body := httptest.NewRecorder()
	srv.handleMetrics(body, httptest.NewRequest("GET", "/metrics", nil))
	text := body.Body.String()
	for _, want := range []string{
		`hetpapi_pkg_power_watts{machine="m0000"} -0` + "\n",
		`hetpapi_counter_total{machine="quo\"te",cpu="2",type="E \"core\"",kind="llc-misses"} `,
		"} 1e+21\n",
		"} 5e-324\n",
		`hetpapid_spans_dropped_total{machine="col\"2"} 3`,
		`hetpapid_runs_total{machine="m0000"} 1` + "\n",
		`hetpapid_samples_total{machine="m0000"} 1` + "\n",
		`hetpapid_points_total{machine="m0000"} 54` + "\n",
		`hetpapid_samples_total{machine="col\"2"} 0` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
	if strings.Contains(text, "hetpapiprof_") {
		t.Error("profiler families printed without a profiler")
	}
}
