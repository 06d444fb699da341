package sim_test

import (
	"testing"

	"hetpapi/internal/hw"
	"hetpapi/internal/sim"
	"hetpapi/internal/workload"
)

// parkedSpin is a spin a test can park: parked, it is neither ready nor
// done, so once it is evicted from its CPU the machine is quiescent.
type parkedSpin struct {
	*workload.Spin
	parked bool
}

func (p *parkedSpin) Ready() bool { return !p.parked && p.Spin.Ready() }

// TestFreqGenTracksFrequencies pins the frequency generation that gates
// the freq-envelope audit: after every step, FreqGen must have moved if
// and only if some CPU's CurFreqMHz differs from the step before. The run
// passes through each way a frequency changes: work starting and ending
// (busy to idle to busy), a CPU taken offline under its task, a user
// frequency cap lowered while the P-cores are busy, and an idle span
// entered straight from a busy tick (a parked task evicted by hotplug),
// where the idle span's entry sets the frequencies.
func TestFreqGenTracksFrequencies(t *testing.T) {
	m := hw.RaptorLake()
	s := sim.New(m, sim.DefaultConfig())
	park := &parkedSpin{Spin: workload.NewSpin("park", 1)}
	ecpu := -1
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		if m.TypeOf(cpu).Class == hw.Efficiency {
			ecpu = cpu
			break
		}
	}
	if ecpu < 0 {
		t.Fatal("no E-core")
	}
	// Each phase starts at a step and must change the frequency of its
	// CPU at least once.
	phases := []struct {
		name  string
		step  int
		cpu   int
		apply func()
	}{
		{"busy", 1, ecpu, func() {
			s.Spawn(workload.NewSpin("p", 0.2), hw.NewCPUSet(0))
			s.Spawn(workload.NewSpin("e", 0.2), hw.NewCPUSet(ecpu))
		}},
		{"idle", 150, ecpu, nil},
		{"busy-again", 400, 0, func() {
			s.Spawn(workload.NewSpin("p2", 1), hw.NewCPUSet(0))
			s.Spawn(workload.NewSpin("hp", 1), hw.NewCPUSet(2, 4))
		}},
		{"hotplug", 500, 2, func() { s.SetCPUOnline(2, false) }},
		{"freq-cap", 700, 0, func() { s.Governor.SetUserCapMHz(hw.Performance, 1200) }},
		{"busy-parkable", 1450, 6, func() { s.Spawn(park, hw.NewCPUSet(6)) }},
		{"park-evict", 1500, 6, func() {
			park.parked = true
			s.SetCPUOnline(6, false)
		}},
	}
	changedIn := make([]int, len(phases))
	prev := make([]float64, m.NumCPUs())
	phase := -1
	for step := 1; step <= 1600; step++ {
		if phase+1 < len(phases) && phases[phase+1].step == step {
			phase++
			if f := phases[phase].apply; f != nil {
				f()
			}
		}
		for cpu := range prev {
			prev[cpu] = s.CurFreqMHz(cpu)
		}
		gen := s.FreqGen()
		s.Step()
		changed := false
		for cpu, f := range prev {
			if s.CurFreqMHz(cpu) != f {
				changed = true
			}
		}
		if moved := s.FreqGen() != gen; moved != changed {
			t.Fatalf("step %d (t=%.3f s, %s): FreqGen moved %v, frequencies changed %v",
				step, s.Now(), phases[phase].name, moved, changed)
		}
		if cpu := phases[phase].cpu; s.CurFreqMHz(cpu) != prev[cpu] {
			changedIn[phase]++
		}
	}
	for i, p := range phases {
		if changedIn[i] == 0 {
			t.Errorf("phase %q (from step %d) never changed cpu%d's frequency; it does not exercise FreqGen",
				p.name, p.step, p.cpu)
		}
	}
}
