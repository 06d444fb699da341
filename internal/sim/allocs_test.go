package sim_test

import (
	"runtime"
	"testing"

	"hetpapi/internal/hw"
	"hetpapi/internal/sim"
	"hetpapi/internal/workload"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestStepAllocations holds the bare kernel tick to no steady-state
// allocation, on a busy machine and on two idle ones. It counts
// runtime.MemStats.Mallocs over many steps instead of using
// testing.AllocsPerRun, whose integer result reads a fraction of an
// allocation per tick as zero.
func TestStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are checked without the race detector")
	}
	const (
		steps     = 20000
		maxAllocs = 20
	)
	idle := func(mk func() *hw.Machine) func(*testing.T) *sim.Machine {
		return func(*testing.T) *sim.Machine {
			s := sim.New(mk(), sim.DefaultConfig())
			// Start warm so the settle span does real cooling work.
			s.Thermal.SetTempC(s.Thermal.Spec().AmbientC + 20)
			return s
		}
	}
	for _, c := range []struct {
		name  string
		busy  bool
		build func(*testing.T) *sim.Machine
	}{
		// Full 16-thread HPL on the hybrid Raptor Lake, one thread per
		// core: every tick does per-CPU work and the scheduler's
		// migration perturbation picks CPUs by class.
		{"hpl-pcores", true, func(t *testing.T) *sim.Machine {
			m := hw.RaptorLake()
			s := sim.New(m, sim.DefaultConfig())
			h, err := workload.NewHPL(workload.HPLConfig{
				N: 57024, NB: 192, Threads: 16, Strategy: workload.IntelMKL(), Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, task := range h.Threads() {
				s.Spawn(task, hw.NewCPUSet(m.FirstCPUPerCore()[i]))
			}
			return s
		}},
		// An idle Raptor Lake cooling between runs, and the idle
		// big.LITTLE board: the batched idle path.
		{"settle-idle", false, idle(hw.RaptorLake)},
		{"biglittle-idle", false, idle(hw.OrangePi800)},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.build(t)
			// One warm-up step, as testing.AllocsPerRun makes one warm-up
			// call: the first step builds state the later ones reuse.
			s.Step()
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < steps; i++ {
				s.Step()
			}
			runtime.ReadMemStats(&after)
			if c.busy && s.Sched.Quiescent() {
				t.Fatalf("the workload finished within %d steps; the busy tick was not measured", steps)
			}
			n := after.Mallocs - before.Mallocs
			t.Logf("%d steps: %d allocations", steps, n)
			if n >= maxAllocs {
				t.Errorf("%d steps allocated %d times, want fewer than %d", steps, n, maxAllocs)
			}
		})
	}
}
