package sim_test

// Seed-sweep determinism: the simulator's contract is that ALL randomness
// flows from the config seeds. These tests pin both directions of that
// contract through the monitoring trace digest — the same fingerprint the
// scenario harness's golden files use: equal seeds must reproduce the
// trace byte-for-byte, and different seeds must actually change the
// (migration-perturbed) schedule rather than being ignored.

import (
	"testing"

	"hetpapi/internal/hw"
	"hetpapi/internal/sim"
	"hetpapi/internal/trace"
	"hetpapi/internal/workload"
)

// traceDigest runs an unpinned instruction loop on the hybrid Raptor Lake
// under the given scheduler seed and returns the trace digest plus the
// finish time.
func traceDigest(t *testing.T, seed int64) (string, float64) {
	t.Helper()
	m := hw.RaptorLake()
	cfg := sim.DefaultConfig()
	cfg.Sched.Seed = seed
	s := sim.New(m, cfg)
	loop := workload.NewInstructionLoop("roam", 1e6, 4000)
	s.Spawn(loop, hw.AllCPUs(m))
	rec := trace.NewRecorder(s, 0.25)
	defer s.AddStepHook(func(*sim.Machine) { rec.Poll() })()
	if !s.RunUntil(loop.Done, 60) {
		t.Fatal("loop did not finish")
	}
	return trace.DigestSamples(m.NumCPUs(), rec.Samples()), s.Now()
}

// sweepSeeds is the 16-seed sweep both determinism tests below run: a
// spread of small, adjacent, bit-pattern and large seeds so neither the
// RNG seeding nor the step loop's span caching can hide behind one
// lucky value.
var sweepSeeds = []int64{
	1, 2, 3, 4, 5, 17, 42, 255, 256, 4096, 65537,
	1 << 20, 1 << 31, 1<<31 + 1, 1 << 40, 1<<62 - 1,
}

func TestSeedSweepReproducible(t *testing.T) {
	for _, seed := range sweepSeeds {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			d1, t1 := traceDigest(t, seed)
			d2, t2 := traceDigest(t, seed)
			if d1 != d2 || t1 != t2 {
				t.Errorf("seed %d: two runs diverged (digest %s vs %s, time %g vs %g)",
					seed, d1[:12], d2[:12], t1, t2)
			}
		})
	}
}

// TestSettleReproducible pins the idle fast path: Settle spends millions
// of quiescent ticks — exactly the span the step loop batches — so two
// fresh machines walked through the same warm-up must land on identical
// waited time, clock, temperature and energy.
func TestSettleReproducible(t *testing.T) {
	settle := func() []float64 {
		s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
		s.Thermal.SetTempC(55)
		waited := s.Settle(36)
		return []float64{waited, s.Now(), s.Thermal.TempC(), s.Power.EnergyJ(0)}
	}
	a, b := settle(), settle()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("settle diverged at field %d: %v vs %v", i, a, b)
		}
	}
}

func TestSeedSweepDiverges(t *testing.T) {
	digests := map[string][]int64{}
	for _, seed := range []int64{1, 2, 3, 17, 1 << 40} {
		d, _ := traceDigest(t, seed)
		digests[d] = append(digests[d], seed)
	}
	if len(digests) < 2 {
		t.Errorf("all %d seeds produced one digest; the scheduler seed is being ignored", len(digests))
	}
}
