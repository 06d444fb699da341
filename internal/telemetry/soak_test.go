package telemetry_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"hetpapi/internal/fleet"
	"hetpapi/internal/telemetry"
)

// collectedHeap is the live heap after two full collections, in bytes:
// the second empties the sync.Pool victim caches the first filled.
func collectedHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// TestLoopModeHeapPlateau is the loop-mode soak. It streams 160 rounds
// of one seeded 16-machine fleet into one store the way hetpapid's fleet
// loop does: each round after the previous one's last sample, with
// anomaly scoring, the streamer's self-overhead series and the /fleet
// report. After every round it serves the daemon's heavy reads three
// times each. Each round adds 2.5 simulated seconds, so with a window
// Capacity of 64 and a RungCapacity of 4 every ring is full, or at its
// last size, before the halfway round:
//   - the raw rings and percentile windows within the first rounds;
//   - the self-overhead series (one sample per round) by round 64;
//   - the 1m rungs at their third closed bucket, 180 s or round 72;
//   - httpobs's 256-sample latency windows by round 86.
//
// From the halfway round on, the collected heap must stay within
// soakMargin of its value there, and under soakCeiling. Measured on
// go1.24.0: 0.83 MB at round 80 and 0.82 MB at round 160.
func TestLoopModeHeapPlateau(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a fleet 160 times")
	}
	const (
		soakRounds  = 160
		soakMargin  = 0.10
		soakCeiling = 1 << 20
	)
	f, err := fleet.Generate(fleet.GenConfig{Machines: 16, Seed: 1, StaggerSec: 0.5, Chaos: &fleet.ChaosConfig{IncidentRate: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	before := collectedHeap()
	st := telemetry.NewStore(telemetry.Config{Capacity: 64, RungCapacity: 4, Shards: 8})
	srv := telemetry.NewServer(st, 5*time.Second)
	mon := fleet.NewMonitor()
	mon.Register(srv)
	h := srv.Handler()

	base, mid := 0.0, 0.0
	for round := 1; round <= soakRounds; round++ {
		s := telemetry.NewStreamer(st, 0)
		s.SetBaseSec(base)
		rep, err := fleet.Run(context.Background(), f, fleet.RunConfig{Streamer: s, Anomaly: &fleet.AnomalyConfig{Threshold: 4}})
		if err != nil {
			t.Fatal(err)
		}
		o := s.ExportOverhead(float64(round))
		mon.SetReport(rep, &o)
		base = s.MaxSec() + 1
		for _, target := range []string{"/fleet/query?rung=10s&timeline=1", "/fleet", "/metrics", "/status", "/series?machine=m0000"} {
			for range 3 {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("round %d %s: status %d", round, target, rec.Code)
				}
			}
		}
		if round == soakRounds/2 {
			mid = collectedHeap() - before
		}
	}
	end := collectedHeap() - before
	t.Logf("collected heap: %.2f MB at round %d, %.2f MB at round %d (%d series, %.0f simulated s)",
		mid/(1<<20), soakRounds/2, end/(1<<20), soakRounds, st.NumSeries(), base)
	if end > mid*(1+soakMargin) {
		t.Errorf("heap grew from %.2f MB at round %d to %.2f MB at round %d, more than %.0f%%",
			mid/(1<<20), soakRounds/2, end/(1<<20), soakRounds, 100*soakMargin)
	}
	if end > soakCeiling {
		t.Errorf("heap %.2f MB at round %d, ceiling %.2f MB", end/(1<<20), soakRounds, float64(soakCeiling)/(1<<20))
	}
	runtime.KeepAlive(h)
}
