package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hetpapi/internal/fleet"
	"hetpapi/internal/profile"
	"hetpapi/internal/telemetry"
	"hetpapi/internal/telemetry/client"
	"hetpapi/internal/validate"
)

func TestResolveSpecs(t *testing.T) {
	all, err := resolveSpecs("all")
	if err != nil || len(all) < 4 {
		t.Fatalf("all -> %d specs, err %v", len(all), err)
	}
	two, err := resolveSpecs("homogeneous-powercap, dimensity-mixed-injects")
	if err != nil || len(two) != 2 || two[0].Name != "homogeneous-powercap" {
		t.Fatalf("pair -> %+v err %v", two, err)
	}
	if _, err := resolveSpecs("no-such-scenario"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("unknown scenario err = %v", err)
	}
	if _, err := resolveSpecs(" , "); err == nil {
		t.Fatal("empty selection must error")
	}
}

// TestDaemonLiveQueries boots the daemon on two concurrent machines in
// loop mode, queries /query and /metrics while collection is hot, checks
// each machine's sampler ledger is reporting, then shuts down gracefully.
func TestDaemonLiveQueries(t *testing.T) {
	cfg := config{
		addr:       "127.0.0.1:0",
		scenarios:  "homogeneous-powercap,dimensity-mixed-injects",
		capacity:   2048,
		downsample: 1,
		shards:     8,
		loop:       true, // keep collection hot for the whole test
		reqTimeout: 5 * time.Second,
		traceCap:   1024,
		sloLatMs:   250,
		sloErrPct:  1,
		profile:    true,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, testWriter{t}, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	c := client.New("http://" + addr)
	rctx := context.Background()

	if h, err := c.Health(rctx); err != nil || h.Status != "ok" || h.Machines != 2 {
		t.Fatalf("health %+v err %v", h, err)
	}

	// Wait for both machines' streamers to have sampled.
	deadline := time.Now().Add(15 * time.Second)
	var machines []telemetry.MachineInfo
	for time.Now().Before(deadline) {
		ms, err := c.Machines(rctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 2 && ms[0].Samples > 0 && ms[1].Samples > 0 {
			machines = ms
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if machines == nil {
		t.Fatal("streamers never reported samples")
	}
	for _, m := range machines {
		if m.Points <= m.Samples {
			t.Errorf("machine %s appended %d points in %d samples, want several per sample", m.Name, m.Points, m.Samples)
		}
		if m.IngestSec <= 0 || m.NsPerPoint <= 0 {
			t.Errorf("machine %s reports no ingestion cost: %+v", m.Name, m)
		}
	}

	// Live series query on the hybrid machine while its run is hot.
	q, err := c.Query(rctx, telemetry.QueryRequest{
		Machine: "dimensity-mixed-injects", Series: "power_w", Agg: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Points) == 0 || q.Aggregate == nil || q.Aggregate.Count == 0 {
		t.Fatalf("live power query empty: %+v", q)
	}

	// Per-core-type counter aggregation: the Dimensity has three core
	// types, and each eventually counts instructions (the prime core only
	// gets work once the scenario's late-spin workload starts at t=3s
	// simulated, so poll). This wait gets its own generous deadline: under
	// the race detector the simulation can need tens of wall seconds to
	// reach t=3s, well past whatever the tick wait above left over.
	typeDeadline := time.Now().Add(90 * time.Second)
	var g *telemetry.QueryResponse
	allCounting := false
	for time.Now().Before(typeDeadline) && !allCounting {
		g, err = c.Query(rctx, telemetry.QueryRequest{
			Machine: "dimensity-mixed-injects", Kind: "instructions", By: "type",
		})
		if err != nil {
			t.Fatal(err)
		}
		allCounting = len(g.Groups) == 3
		for _, grp := range g.Groups {
			allCounting = allCounting && grp.LastSum > 0
		}
		if !allCounting {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !allCounting {
		t.Fatalf("core-type groups never all counted instructions: %+v", g.Groups)
	}

	text, err := c.Metrics(rctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`hetpapi_pkg_power_watts{machine="homogeneous-powercap"}`,
		`hetpapi_counter_total{machine="dimensity-mixed-injects"`,
		"# TYPE hetpapid_ingest_ns_per_point gauge",
		`hetpapid_samples_total{machine="dimensity-mixed-injects"}`,
		`hetpapid_points_total{machine="homogeneous-powercap"}`,
		`hetpapiprof_samples_emitted_total{machine="dimensity-mixed-injects"}`,
		`hetpapiprof_samples_lost_total{machine="homogeneous-powercap"}`,
		`hetpapid_http_requests_total{endpoint="/health",class="2xx"}`,
		`hetpapid_http_slo_attainment_pct{endpoint="/machines"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The serving path reports on itself: /status carries per-endpoint
	// accounting for the traffic this test has generated, judged against
	// the configured SLO targets.
	status, err := c.Status(rctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Requests == 0 || status.SLOLatencyMs != 250 || status.SLOErrorPct != 1 {
		t.Fatalf("serving status %+v", status)
	}
	foundQuery := false
	for _, es := range status.Endpoints {
		if es.Endpoint == "/query" {
			foundQuery = true
			if es.Requests == 0 || es.StatusClass["2xx"] == 0 || es.P99Ms <= 0 {
				t.Fatalf("/query serving stats %+v", es)
			}
		}
	}
	if !foundQuery {
		t.Fatalf("/query missing from serving status: %+v", status.Endpoints)
	}

	// With tracing enabled the serving path records per-request spans,
	// served as Perfetto JSON under the reserved machine id "http".
	resp0, err := http.Get("http://" + addr + "/trace?machine=http")
	if err != nil {
		t.Fatal(err)
	}
	traceBody, err := io.ReadAll(resp0.Body)
	resp0.Body.Close()
	if err != nil || resp0.StatusCode != 200 {
		t.Fatalf("http trace fetch: status %d, err %v", resp0.StatusCode, err)
	}
	if !strings.Contains(string(traceBody), `"http./health"`) {
		t.Fatalf("serving trace missing request spans: %.200s", traceBody)
	}

	// The profiler endpoint serves a decodable pprof profile with samples
	// from the hybrid machine, and its counters stream as profile/* series.
	resp, err := http.Get("http://" + addr + "/profile?machine=dimensity-mixed-injects")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("profile fetch: status %d, err %v", resp.StatusCode, err)
	}
	d, err := profile.DecodePprof(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("served profile does not decode: %v", err)
	}
	if len(d.SampleTypes) != 3 {
		t.Fatalf("served profile sample types: %+v", d.SampleTypes)
	}
	pq, err := c.Query(rctx, telemetry.QueryRequest{
		Machine: "dimensity-mixed-injects", Series: "profile/emitted", Agg: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pq.Points) == 0 || pq.Aggregate == nil || pq.Aggregate.Last == 0 {
		t.Fatalf("profile/emitted series empty: %+v", pq)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if _, err := c.Health(rctx); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}
}

// testWriter routes daemon logs into the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestDaemonFleetEndpoint boots the daemon with a small fleet enabled
// (no scenario loop) and polls /fleet until the first roll-up lands:
// the report must cover every machine and carry the fleet digest.
func TestDaemonFleetEndpoint(t *testing.T) {
	cfg := config{
		addr:         "127.0.0.1:0",
		scenarios:    "homogeneous-powercap",
		capacity:     256,
		downsample:   1,
		shards:       2,
		loop:         false,
		reqTimeout:   5 * time.Second,
		fleetN:       8,
		fleetSeed:    7,
		fleetStagger: 0.3,
		fleetChaos:   0.5,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, testWriter{t}, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	var info fleet.FleetInfo
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/fleet")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == 200 {
			if err := json.Unmarshal(body, &info); err != nil {
				t.Fatalf("bad /fleet body %s: %v", body, err)
			}
			if info.Report != nil {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if info.Report == nil {
		t.Fatal("no fleet report appeared at /fleet")
	}
	if info.Report.Machines != 8 || info.Report.Seed != 7 || len(info.Report.Digest) != 64 {
		t.Fatalf("fleet report %+v", info.Report)
	}
	if info.Report.Completed+info.Report.Stopped+info.Report.Skipped != 8 {
		t.Fatalf("fleet outcomes do not cover all machines: %+v", info.Report)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonValidateEndpoint: a daemon started with -validate must
// publish a passing all-model scorecard at /validate shortly after
// startup.
func TestDaemonValidateEndpoint(t *testing.T) {
	cfg := config{
		addr:       "127.0.0.1:0",
		scenarios:  "homogeneous-powercap",
		capacity:   256,
		downsample: 1,
		shards:     2,
		loop:       false,
		reqTimeout: 5 * time.Second,
		validate:   true,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, testWriter{t}, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	var card validate.Scorecard
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/validate")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == 200 {
			if err := json.Unmarshal(body, &card); err != nil {
				t.Fatalf("bad /validate body %s: %v", body, err)
			}
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if card.Summary.Rows == 0 {
		t.Fatal("no scorecard appeared at /validate")
	}
	if card.Summary.Failed != 0 {
		t.Fatalf("startup scorecard has %d failing rows", card.Summary.Failed)
	}
	if len(card.Models) != 4 || len(card.Digest) != 64 {
		t.Fatalf("scorecard models %v digest %q", card.Models, card.Digest)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
