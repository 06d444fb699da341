package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hetpapi/internal/fleet"
	"hetpapi/internal/hw"
	"hetpapi/internal/profile"
	"hetpapi/internal/scenario"
	"hetpapi/internal/telemetry"
	"hetpapi/internal/telemetry/client"
	"hetpapi/internal/validate"
)

// seededServer builds a store with known contents and a server with one
// registered machine.
func seededServer(t *testing.T, timeout time.Duration) (*telemetry.Store, *telemetry.Server) {
	t.Helper()
	st := telemetry.NewStore(telemetry.Config{Capacity: 64})
	for i := 0; i < 10; i++ {
		ti := float64(i)
		st.Append(telemetry.Key{Machine: "mach", Series: "power_w"}, ti, 40+ti)
		st.Append(telemetry.Key{Machine: "mach", Series: telemetry.CounterSeriesName(0, "P-core", "instructions")}, ti, 1000*ti)
		st.Append(telemetry.Key{Machine: "mach", Series: telemetry.CounterSeriesName(1, "E-core", "instructions")}, ti, 100*ti)
	}
	srv := telemetry.NewServer(st, timeout)
	srv.Register("mach", "seed-scenario", "homogeneous", telemetry.NewStreamer(st, 0))
	return st, srv
}

func TestHandlersTable(t *testing.T) {
	_, srv := seededServer(t, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name       string
		path       string
		wantStatus int
		check      func(t *testing.T, body []byte)
	}{
		{"health ok", "/health", 200, func(t *testing.T, body []byte) {
			var h telemetry.HealthInfo
			if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" || h.Series != 3 {
				t.Fatalf("health = %s (err %v)", body, err)
			}
		}},
		{"machines ok", "/machines", 200, func(t *testing.T, body []byte) {
			var ms []telemetry.MachineInfo
			if err := json.Unmarshal(body, &ms); err != nil || len(ms) != 1 {
				t.Fatalf("machines = %s (err %v)", body, err)
			}
			if ms[0].Name != "mach" || ms[0].Scenario != "seed-scenario" || ms[0].Model != "homogeneous" {
				t.Fatalf("machine entry %+v", ms[0])
			}
		}},
		{"series missing machine", "/series", 400, nil},
		{"series unknown machine", "/series?machine=nope", 404, nil},
		{"series ok", "/series?machine=mach", 200, func(t *testing.T, body []byte) {
			var ss []telemetry.SeriesInfo
			if err := json.Unmarshal(body, &ss); err != nil || len(ss) != 3 {
				t.Fatalf("series = %s (err %v)", body, err)
			}
			if ss[len(ss)-1].Name != "power_w" || ss[len(ss)-1].Agg.Count != 10 {
				t.Fatalf("series entries %+v", ss)
			}
		}},
		{"query missing machine", "/query", 400, nil},
		{"query unknown machine", "/query?machine=nope&series=power_w", 404, nil},
		{"query no series or kind", "/query?machine=mach", 400, nil},
		{"query series and kind", "/query?machine=mach&series=power_w&kind=instructions", 400, nil},
		{"query malformed from", "/query?machine=mach&series=power_w&from=abc", 400, nil},
		{"query malformed to", "/query?machine=mach&series=power_w&to=1e", 400, nil},
		{"query bad grouping", "/query?machine=mach&kind=instructions&by=cpu", 400, nil},
		{"query unknown series", "/query?machine=mach&series=nope", 404, nil},
		{"query empty range", "/query?machine=mach&series=power_w&from=100&to=200", 200, func(t *testing.T, body []byte) {
			var q telemetry.QueryResponse
			if err := json.Unmarshal(body, &q); err != nil || len(q.Points) != 0 {
				t.Fatalf("empty range = %s (err %v)", body, err)
			}
		}},
		{"query range slice", "/query?machine=mach&series=power_w&from=2&to=4", 200, func(t *testing.T, body []byte) {
			var q telemetry.QueryResponse
			if err := json.Unmarshal(body, &q); err != nil || len(q.Points) != 3 {
				t.Fatalf("range = %s (err %v)", body, err)
			}
			if q.Points[0].Value != 42 || q.Points[2].Value != 44 {
				t.Fatalf("range points %+v", q.Points)
			}
		}},
		{"query with aggregate", "/query?machine=mach&series=power_w&agg=1", 200, func(t *testing.T, body []byte) {
			var q telemetry.QueryResponse
			if err := json.Unmarshal(body, &q); err != nil || q.Aggregate == nil {
				t.Fatalf("agg query = %s (err %v)", body, err)
			}
			if q.Aggregate.Count != 10 || q.Aggregate.Min != 40 || q.Aggregate.Max != 49 {
				t.Fatalf("aggregate %+v", q.Aggregate)
			}
		}},
		{"query by type", "/query?machine=mach&kind=instructions&by=type", 200, func(t *testing.T, body []byte) {
			var q telemetry.QueryResponse
			if err := json.Unmarshal(body, &q); err != nil || len(q.Groups) != 2 {
				t.Fatalf("by-type = %s (err %v)", body, err)
			}
			if q.Groups[0].Type != "E-core" || q.Groups[1].Type != "P-core" {
				t.Fatalf("groups %+v", q.Groups)
			}
			if q.Groups[1].LastSum != 9000 {
				t.Fatalf("P-core LastSum = %g", q.Groups[1].LastSum)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			if resp.StatusCode != 200 {
				var e telemetry.APIError
				if err := json.Unmarshal(body, &e); err != nil || e.Status != tc.wantStatus || e.Error == "" {
					t.Fatalf("error body %s not a valid APIError (err %v)", body, err)
				}
			}
			if tc.check != nil {
				tc.check(t, body)
			}
		})
	}
}

// TestDegradationsEndpoint seeds measure/* and degradation/* series for
// one of two machines and checks /degradations reports only the probed
// machine, with latest tallies and per-event readings, and that the
// tallies surface in /metrics as hetpapi_degradation_total.
func TestDegradationsEndpoint(t *testing.T) {
	st := telemetry.NewStore(telemetry.Config{Capacity: 64})
	for i := 0; i < 5; i++ {
		ti := float64(i)
		st.Append(telemetry.Key{Machine: "plain", Series: "power_w"}, ti, 40+ti)
		st.Append(telemetry.Key{Machine: "probed", Series: "power_w"}, ti, 50+ti)
		st.Append(telemetry.Key{Machine: "probed",
			Series: telemetry.MeasureSeriesName("PAPI_TOT_INS", "final")}, ti, 1000*ti)
		st.Append(telemetry.Key{Machine: "probed",
			Series: telemetry.MeasureSeriesName("PAPI_TOT_INS", "error_bound")}, ti, 10*ti)
		st.Append(telemetry.Key{Machine: "probed",
			Series: telemetry.DegradationSeriesName("busy_retries")}, ti, ti)
	}
	srv := telemetry.NewServer(st, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}

	code, body := get("/degradations")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var infos []telemetry.DegradationInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	if len(infos) != 1 || infos[0].Machine != "probed" {
		t.Fatalf("want only the probed machine, got %+v", infos)
	}
	if infos[0].Counters["busy_retries"] != 4 {
		t.Errorf("busy_retries = %g, want latest value 4", infos[0].Counters["busy_retries"])
	}
	if len(infos[0].Events) != 1 || infos[0].Events[0].Event != "PAPI_TOT_INS" ||
		infos[0].Events[0].Final != 4000 || infos[0].Events[0].ErrorBound != 40 {
		t.Errorf("events %+v", infos[0].Events)
	}

	if code, body := get("/degradations?machine=probed"); code != 200 {
		t.Fatalf("machine filter status %d: %s", code, body)
	}
	if code, _ := get("/degradations?machine=plain"); code != 200 {
		t.Fatalf("unprobed machine filter must still be 200 (empty list), got %d", code)
	}
	if code, _ := get("/degradations?machine=nope"); code != 404 {
		t.Fatalf("unknown machine must 404, got %d", code)
	}

	_, metrics := get("/metrics")
	if !strings.Contains(string(metrics),
		`hetpapi_degradation_total{machine="probed",action="busy_retries"} 4`) {
		t.Errorf("metrics missing degradation family:\n%s", metrics)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, srv := seededServer(t, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE hetpapi_pkg_power_watts gauge",
		`hetpapi_pkg_power_watts{machine="mach"} 49`,
		`hetpapi_counter_total{machine="mach",cpu="0",type="P-core",kind="instructions"} 9000`,
		"# TYPE hetpapid_samples_total counter",
		`hetpapid_ingest_ns_per_point{machine="mach"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestClientRoundTrip drives every client method against the server.
func TestClientRoundTrip(t *testing.T) {
	_, srv := seededServer(t, time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("health %+v err %v", h, err)
	}
	if ms, err := c.Machines(ctx); err != nil || len(ms) != 1 {
		t.Fatalf("machines %+v err %v", ms, err)
	}
	if ss, err := c.Series(ctx, "mach"); err != nil || len(ss) != 3 {
		t.Fatalf("series %+v err %v", ss, err)
	}
	q, err := c.Query(ctx, telemetry.QueryRequest{Machine: "mach", Series: "power_w", Agg: true})
	if err != nil || len(q.Points) != 10 || q.Aggregate == nil {
		t.Fatalf("query %+v err %v", q, err)
	}
	if _, err := c.Query(ctx, telemetry.QueryRequest{Machine: "ghost", Series: "power_w"}); err == nil {
		t.Fatal("unknown machine must error")
	} else if !strings.Contains(err.Error(), "404") {
		t.Fatalf("error %v does not surface the status", err)
	}
}

// TestRequestTimeout checks the per-request timeout wrapper returns 503
// once the deadline passes.
func TestRequestTimeout(t *testing.T) {
	_, srv := seededServer(t, time.Nanosecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sawTimeout := false
	for i := 0; i < 20 && !sawTimeout; i++ {
		resp, err := http.Get(ts.URL + "/health")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		sawTimeout = resp.StatusCode == http.StatusServiceUnavailable
	}
	if !sawTimeout {
		t.Fatal("1ns request timeout never produced a 503")
	}
}

// TestShutdownMidRequest drains a real HTTP server while /query traffic
// is in flight: requests either succeed or fail cleanly, and Shutdown
// returns.
func TestShutdownMidRequest(t *testing.T) {
	st, srv := seededServer(t, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Append(telemetry.Key{Machine: "mach", Series: "power_w"}, 0, 1)
				resp, err := http.Get(base + "/query?machine=mach&series=power_w")
				if err != nil {
					return // connection refused after shutdown: expected
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let requests flow
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
	if _, err := http.Get(base + "/health"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

// TestConcurrentWritersAndQueryReaders is the HTTP-level race check:
// collector-style writers append while /query and /metrics readers pull,
// all under -race in CI.
func TestConcurrentWritersAndQueryReaders(t *testing.T) {
	st, srv := seededServer(t, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				st.Append(telemetry.Key{Machine: "mach", Series: "power_w"}, float64(i), float64(i))
				st.Append(telemetry.Key{Machine: "mach", Series: fmt.Sprintf("cpu%d/P-core/cycles", w)}, float64(i), float64(i))
			}
		}(w)
	}
	c := client.New(ts.URL)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 50; i++ {
				if _, err := c.Query(ctx, telemetry.QueryRequest{Machine: "mach", Series: "power_w", Agg: true}); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Query(ctx, telemetry.QueryRequest{Machine: "mach", Kind: "cycles", By: "type"}); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Metrics(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestProfileEndpoint covers the /profile handler: parameter validation,
// the no-profiler 404, and a successful fetch that round-trips through
// the pprof decoder.
func TestProfileEndpoint(t *testing.T) {
	_, srv := seededServer(t, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, _ := get("/profile"); code != 400 {
		t.Fatalf("missing machine must 400, got %d", code)
	}
	if code, _ := get("/profile?machine=nope"); code != 404 {
		t.Fatalf("unknown machine must 404, got %d", code)
	}
	if code, _ := get("/profile?machine=mach"); code != 404 {
		t.Fatalf("machine without profiler must 404, got %d", code)
	}

	srv.AttachProfiler("mach", profile.NewCollector(nil, profile.Config{}))
	code, body := get("/profile?machine=mach")
	if code != 200 {
		t.Fatalf("profile fetch: status %d", code)
	}
	d, err := profile.DecodePprof(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("served profile does not decode: %v", err)
	}
	if len(d.SampleTypes) != 3 {
		t.Fatalf("served profile sample types: %+v", d.SampleTypes)
	}

	_, metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE hetpapiprof_samples_emitted_total counter",
		`hetpapiprof_samples_emitted_total{machine="mach"} 0`,
		`hetpapiprof_samples_lost_total{machine="mach"} 0`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Detach: the endpoint goes back to 404.
	srv.AttachProfiler("mach", nil)
	if code, _ := get("/profile?machine=mach"); code != 404 {
		t.Fatalf("detached profiler must 404, got %d", code)
	}
}

// TestFleetEndpoint: the fleet monitor's mounted /fleet 404s before any
// report, reports the in-flight flag while a run is hot, then serves
// the published roll-up — compact by default, per-machine results with
// results=1.
func TestFleetEndpoint(t *testing.T) {
	_, srv := seededServer(t, 0)
	mon := fleet.NewMonitor()
	mon.Register(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, _ := get("/fleet"); code != 404 {
		t.Fatalf("no report must 404, got %d", code)
	}
	mon.SetRunning(true)
	if code, body := get("/fleet"); code != 200 || !strings.Contains(string(body), `"running": true`) {
		t.Fatalf("pending run: status %d body %s", code, body)
	}

	f, err := fleet.Generate(fleet.GenConfig{
		Machines: 3,
		Seed:     11,
		Templates: []fleet.Template{{Name: "spin", Weight: 1, Spec: scenario.Spec{
			Machine: "homogeneous", MaxSeconds: 1, SamplePeriodSec: 0.25,
			Workloads: []scenario.WorkloadSpec{{
				Kind: scenario.WorkloadSpin, CPUs: []int{0}, Seconds: 0.2,
			}},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(context.Background(), f, fleet.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mon.SetReport(rep, nil)
	mon.SetRunning(false)

	code, body := get("/fleet")
	if code != 200 {
		t.Fatalf("fleet fetch: status %d", code)
	}
	var info fleet.FleetInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Running || info.Report == nil || info.Report.Machines != 3 ||
		info.Report.Completed != 3 || info.Report.Digest != rep.Digest {
		t.Fatalf("fleet body %s", body)
	}
	if len(info.Report.Results) != 0 {
		t.Fatal("default /fleet response must omit per-machine results")
	}

	_, body = get("/fleet?results=1")
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Report.Results) != 3 {
		t.Fatalf("results=1 returned %d machine results", len(info.Report.Results))
	}
}

// TestFleetQueryOneSeriesPerMachine fills a store the way hetpapid does
// when it runs a reference scenario next to -fleet: a streamed
// default-template fleet writes per-type totals, and the scenario
// machine's per-CPU hook writes one counter series per CPU. The
// population view folds per-type totals only, so in every counter group
// of the unfiltered query each member machine counts once. The per-CPU
// counters stay reachable through the machine's by-type rollup.
func TestFleetQueryOneSeriesPerMachine(t *testing.T) {
	st := telemetry.NewStore(telemetry.Config{})
	f, err := fleet.Generate(fleet.GenConfig{Machines: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Run(context.Background(), f, fleet.RunConfig{Streamer: telemetry.NewStreamer(st, 0)}); err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Lookup("raptorlake-hpl-pcores")
	if err != nil {
		t.Fatal(err)
	}
	spec.MaxSeconds = 5
	spec.StepHooks = []scenario.StepHook{telemetry.NewStreamer(st, 0).HookFor(spec.Name, spec.Name, &spec, true)}
	if _, err := scenario.Run(spec); err != nil {
		t.Fatal(err)
	}

	resp, err := st.FleetQuery(telemetry.FleetQueryRequest{Rung: telemetry.Rung1s, FromSec: -1, ToSec: -1})
	if err != nil {
		t.Fatal(err)
	}
	counterGroups := 0
	for _, g := range resp.Groups {
		if g.Type == "machine" || g.Type == "degradation" {
			continue
		}
		counterGroups++
		if g.Series != g.Machines {
			t.Errorf("group %s/%s: %d series from %d machines", g.Type, g.Kind, g.Series, g.Machines)
		}
	}
	if counterGroups == 0 {
		t.Fatalf("no counter groups in %+v", resp)
	}
	if aggs := st.TypeAggregates(spec.Name, "instructions"); len(aggs) == 0 || aggs[0].Series == 0 {
		t.Fatalf("scenario machine's per-CPU counters by type: %+v", aggs)
	}
}

func TestValidateEndpoint(t *testing.T) {
	_, srv := seededServer(t, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/validate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("no scorecard must 404, got %d", resp.StatusCode)
	}

	src, err := hw.LookupModel("homogeneous")
	if err != nil {
		t.Fatal(err)
	}
	card, err := validate.BuildScorecard([]validate.ModelSource{src})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetScorecard(card)

	resp, err = http.Get(ts.URL + "/validate")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("scorecard fetch: status %d body %s", resp.StatusCode, body)
	}
	var got validate.Scorecard
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("bad /validate body: %v", err)
	}
	if got.Digest != card.Digest || got.Summary.Rows != card.Summary.Rows || got.Summary.Failed != 0 {
		t.Fatalf("scorecard mismatch: %+v", got.Summary)
	}
}
