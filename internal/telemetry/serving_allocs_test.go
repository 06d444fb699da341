package telemetry_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"hetpapi/internal/fleet"
	"hetpapi/internal/telemetry"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// rigServer streams a seeded 12-machine fleet into a store, the way the
// hetpapiload in-process rig builds its daemon, and serves it through
// the composed handler. Built once per test binary.
var rigServer = sync.OnceValues(func() (http.Handler, error) {
	f, err := fleet.Generate(fleet.GenConfig{Machines: 12, Seed: 1, StaggerSec: 0.2})
	if err != nil {
		return nil, err
	}
	st := telemetry.NewStore(telemetry.Config{Capacity: 4096, Shards: 8})
	if _, err := fleet.Run(context.Background(), f, fleet.RunConfig{Streamer: telemetry.NewStreamer(st, 0)}); err != nil {
		return nil, err
	}
	return telemetry.NewServer(st, 5*time.Second).Handler(), nil
})

// perRequest serves target n times and returns the mean allocations and
// bytes allocated per request, request and recorder included, measured
// like testing.AllocsPerRun: one warm-up call, GOMAXPROCS 1.
func perRequest(t *testing.T, h http.Handler, target string, n int) (allocs, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.Bytes())
		}
	}
	serve()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestServingAllocationCeilings bounds what one request allocates on the
// 12-machine rig. The store families of /metrics cost nothing per line,
// the inventory-shaped reads (/health, /query, /series) copy and sort
// nothing, and the JSON encoder and the deadline handler's buffers are
// pooled; a regression on any of these shows up as allocations. The
// figures in the comments below are go1.24.0's; net/http's own
// allocations, which every figure includes, can move between Go releases.
// Each ceiling is the measured figure plus two allocations and about a
// kilobyte.
func TestServingAllocationCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 12-machine fleet")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	h, err := rigServer()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		target    string
		maxAllocs float64
		maxBytes  float64
	}{
		// 38 allocations and 17.5 KB. The former writer took /metrics to
		// 960 and 304 KB; with a fresh body buffer per request it was 42
		// and 33.8 KB.
		{"/metrics", 40, 19 << 10},
		// 29, 36 and 34 allocations; 7.0, 7.9 and 11.7 KB. Before the
		// pooled encoder and deadline handler they were 38, 47 and 49
		// allocations and 7.8, 9.7 and 23.4 KB (and before the inventory,
		// the scan and sort of every key took 54, 64 and 83 allocations).
		{"/health", 31, 8 << 10},
		{"/query?machine=m0000&series=power_w&agg=1", 38, 9 << 10},
		{"/series?machine=m0000", 36, 13 << 10},
		// 184 allocations and 44.5 KB; 204 and 101.1 KB before.
		{"/fleet/query?rung=10s", 186, 46 << 10},
		// 114-121 allocations and 18 KB; 136 and 34.7 KB before. The
		// count moves with how many latency buckets each endpoint's
		// histogram map holds, so this row has more room.
		{"/status", 130, 20 << 10},
	} {
		allocs, bytes := perRequest(t, h, c.target, 50)
		t.Logf("%s: %.0f allocations, %.1f KB per request", c.target, allocs, bytes/1024)
		if allocs > c.maxAllocs {
			t.Errorf("%s allocates %.0f times per request, ceiling %.0f", c.target, allocs, c.maxAllocs)
		}
		if bytes > c.maxBytes {
			t.Errorf("%s allocates %.1f KB per request, ceiling %.1f KB", c.target, bytes/1024, c.maxBytes/1024)
		}
	}
}

// TestObserverAllocations bounds what the request observer adds to a
// request: the composed Handler against the same chain without it. It
// counts allocations rather than timing the two, so it cannot flake on a
// busy host. /metrics is left out, because there the observer adds the
// hetpapid_http_* families to the body: output, not overhead.
func TestObserverAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	st := telemetry.NewStore(telemetry.Config{Capacity: 1024})
	for i := 0; i < 512; i++ {
		st.Append(telemetry.Key{Machine: "mach", Series: "power_w"}, float64(i), 40+float64(i%7))
	}
	srv := telemetry.NewServer(st, 0)
	bare, observed := srv.BareHandler(), srv.Handler()
	for _, target := range []string{"/query?machine=mach&series=power_w&agg=1", "/health"} {
		b, _ := perRequest(t, bare, target, 2000)
		o, _ := perRequest(t, observed, target, 2000)
		t.Logf("%s: %.2f allocations per request bare, %.2f observed", target, b, o)
		if o-b > 0.5 {
			t.Errorf("%s: the observer adds %.2f allocations per request, want at most 0.5", target, o-b)
		}
	}
}
