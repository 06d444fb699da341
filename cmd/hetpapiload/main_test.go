package main

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	got, err := parseMix("query=30, series=20,health=0")
	if err != nil {
		t.Fatalf("parseMix: %v", err)
	}
	want := map[string]int{"query": 30, "series": 20, "health": 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseMix = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "query", "query=x", "query=-1", "bogus=10", "query=0,series=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted, want error", bad)
		}
	}
}

func TestBuildScheduleDeterministic(t *testing.T) {
	cfg := config{
		duration: 2 * time.Second, rate: 100, seed: 42, gzipFrac: 0.5,
		mix: "query=30,series=20,fleet=15,metrics=15,status=10,health=10",
	}
	machines := []string{"m0000", "m0001", "m0002"}
	a, err := buildSchedule(cfg, machines)
	if err != nil {
		t.Fatalf("buildSchedule: %v", err)
	}
	b, _ := buildSchedule(cfg, machines)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) != 200 {
		t.Fatalf("schedule length = %d, want 200 (rate*duration)", len(a))
	}
	// Open-loop arrivals: strictly increasing at exactly 1/rate.
	period := 10 * time.Millisecond
	gz := 0
	for k, j := range a {
		if j.at != time.Duration(k)*period {
			t.Fatalf("job %d arrival = %v, want %v", k, j.at, time.Duration(k)*period)
		}
		if !strings.HasPrefix(j.target, j.endpoint) {
			t.Fatalf("job %d endpoint %q does not prefix target %q", k, j.endpoint, j.target)
		}
		if j.gzip {
			gz++
		}
	}
	if gz == 0 || gz == len(a) {
		t.Fatalf("gzip fraction 0.5 chose gzip on %d/%d requests", gz, len(a))
	}
	// A different seed reshuffles the mix.
	cfg.seed = 43
	c, _ := buildSchedule(cfg, machines)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestBuildScheduleNeedsMachines(t *testing.T) {
	cfg := config{duration: time.Second, rate: 10, mix: "query=10"}
	if _, err := buildSchedule(cfg, nil); err == nil {
		t.Fatal("per-machine mix with no machines accepted, want error")
	}
	cfg.mix = "health=10"
	if _, err := buildSchedule(cfg, nil); err != nil {
		t.Fatalf("machine-free mix rejected: %v", err)
	}
}

// TestRunInProcess drives the whole harness — seeded fleet rig, open-loop
// load, /status self-validation, gates — end to end.
func TestRunInProcess(t *testing.T) {
	cfg := config{
		duration: 500 * time.Millisecond,
		rate:     200,
		workers:  4,
		mix:      "query=30,series=20,fleet=15,metrics=15,status=10,health=10",
		gzipFrac: 0.5,
		seed:     7,
		fleetN:   6,
		minQPS:   50,
		maxP99Ms: 1000,
		agreeFac: 3, agreeSlack: 25,
	}
	var log bytes.Buffer
	sc, err := run(context.Background(), cfg, &log)
	if err != nil {
		t.Fatalf("run: %v\nlog:\n%s", err, log.String())
	}
	for _, want := range []string{"qps", "server view", "/query"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("log missing %q:\n%s", want, log.String())
		}
	}
	if sc.Requests != 100 {
		t.Errorf("requests = %d, want 100 (rate*duration)", sc.Requests)
	}
	if sc.Machines != 6 || sc.Workers != 4 {
		t.Errorf("machines/workers = %d/%d, want 6/4", sc.Machines, sc.Workers)
	}
	if sc.QPS < cfg.minQPS {
		t.Errorf("qps = %v below the %v gate the run claimed to pass", sc.QPS, cfg.minQPS)
	}
	if sc.ErrorPct != 0 {
		t.Errorf("ErrorPct = %v, want 0", sc.ErrorPct)
	}
	if !(sc.P50Ms > 0 && sc.P50Ms <= sc.P99Ms && sc.P99Ms <= sc.MaxMs) {
		t.Errorf("quantiles disordered: p50 %v p99 %v max %v", sc.P50Ms, sc.P99Ms, sc.MaxMs)
	}
	if sc.AllocsPerOp <= 0 {
		t.Errorf("AllocsPerOp = %v, want > 0", sc.AllocsPerOp)
	}
}

// TestRunGateViolation asserts the harness exits non-zero style (error)
// when a gate cannot be met, so the CI load-smoke step actually bites.
func TestRunGateViolation(t *testing.T) {
	cfg := config{
		duration: 200 * time.Millisecond,
		rate:     100,
		workers:  4,
		mix:      "health=1",
		seed:     1,
		fleetN:   2,
		minQPS:   1e9, // unreachable
		agreeFac: 3, agreeSlack: 25,
	}
	var log bytes.Buffer
	_, err := run(context.Background(), cfg, &log)
	if err == nil || !strings.Contains(err.Error(), "gate") {
		t.Fatalf("run with unreachable qps gate: err = %v, want gate violation", err)
	}
}
