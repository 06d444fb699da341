package sim_test

import (
	"testing"

	"hetpapi/internal/hw"
	"hetpapi/internal/sim"
	"hetpapi/internal/workload"
)

// TestIdleTicksKeepDeadlinesCurrent pins the idle tick's two gates: the
// scheduler and the governor must still run when their deadlines fall
// due on a quiescent machine. A skipped call leaves the subsystem's own
// boundary behind the clock, so after every step both boundaries must
// lie no more than one tick in the past. The machines start warm, spin
// briefly on two CPUs and then idle for about nine tenths of the run.
func TestIdleTicksKeepDeadlinesCurrent(t *testing.T) {
	const steps = 6000
	for _, c := range []struct {
		name  string
		build func() *hw.Machine
	}{
		{"raptorlake", hw.RaptorLake},
		{"orangepi800", hw.OrangePi800},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New(c.build(), sim.DefaultConfig())
			s.Thermal.SetTempC(s.Thermal.Spec().AmbientC + 20)
			s.Spawn(workload.NewSpin("spin0", 0.3), hw.NewCPUSet(0))
			s.Spawn(workload.NewSpin("spin1", 0.6), hw.NewCPUSet(1))
			idle := 0
			for i := 1; i <= steps; i++ {
				s.Step()
				if s.Sched.Quiescent() {
					idle++
				}
				floor := s.Now() - s.Tick() - 1e-9
				if got := s.Sched.NextBalanceSec(); got < floor {
					t.Fatalf("step %d (t=%.3f s): next rebalance %.4f s is behind the clock", i, s.Now(), got)
				}
				if got := s.Governor.NextUpdateSec(); got < floor {
					t.Fatalf("step %d (t=%.3f s): next governor update %.4f s is behind the clock", i, s.Now(), got)
				}
			}
			if idle < steps*85/100 {
				t.Fatalf("only %d of %d steps idle; the run must exercise the idle path", idle, steps)
			}
		})
	}
}
