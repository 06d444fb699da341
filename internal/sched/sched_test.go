package sched

import (
	"testing"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
	"hetpapi/internal/workload"
)

func newSched(m *hw.Machine) *Scheduler {
	cfg := DefaultConfig()
	cfg.MigrateToEffProb = 0 // deterministic placement unless a test wants noise
	cfg.MigrateToPerfProb = 0
	return New(m, cfg)
}

func TestSpawnPrefersPCore(t *testing.T) {
	m := hw.RaptorLake()
	s := newSched(m)
	p := s.Spawn(workload.NewSpin("a", 1), hw.AllCPUs(m))
	s.Tick(0)
	if p.CPU() < 0 {
		t.Fatal("task not placed")
	}
	if m.TypeOf(p.CPU()).Class != hw.Performance {
		t.Fatalf("task placed on %d (%s), want a P-core", p.CPU(), m.TypeOf(p.CPU()).Name)
	}
}

func TestSpawnAvoidsSMTSiblings(t *testing.T) {
	m := hw.RaptorLake()
	s := newSched(m)
	var procs []*Process
	for i := 0; i < 8; i++ {
		procs = append(procs, s.Spawn(workload.NewSpin("t", 1), hw.AllCPUs(m)))
	}
	s.Tick(0)
	cores := map[int]int{}
	for _, p := range procs {
		if p.CPU() < 0 {
			t.Fatal("unplaced task")
		}
		cores[m.CPUs[p.CPU()].PhysCore]++
	}
	for core, n := range cores {
		if n > 1 {
			t.Errorf("%d tasks share physical core %d while whole cores are free", n, core)
		}
	}
}

func TestAffinityRestriction(t *testing.T) {
	m := hw.RaptorLake()
	s := newSched(m)
	eOnly := hw.NewCPUSet(m.CPUsOfType("E-core")...)
	p := s.Spawn(workload.NewSpin("e", 1), eOnly)
	s.Tick(0)
	if got := m.TypeOf(p.CPU()).Name; got != "E-core" {
		t.Fatalf("task placed on %s despite E-only mask", got)
	}
}

func TestSetAffinityMigrates(t *testing.T) {
	m := hw.RaptorLake()
	s := newSched(m)
	p := s.Spawn(workload.NewSpin("x", 10), hw.AllCPUs(m))
	s.Tick(0)
	if m.TypeOf(p.CPU()).Class != hw.Performance {
		t.Fatal("setup: want initial P placement")
	}
	if err := s.SetAffinity(p.PID, hw.NewCPUSet(16)); err != nil {
		t.Fatal(err)
	}
	s.Tick(0.001)
	if p.CPU() != 16 {
		t.Fatalf("after taskset to cpu16, task is on %d", p.CPU())
	}
	if err := s.SetAffinity(p.PID, hw.NewCPUSet()); err == nil {
		t.Error("empty mask must be rejected")
	}
	if err := s.SetAffinity(99999, hw.NewCPUSet(1)); err == nil {
		t.Error("unknown pid must be rejected")
	}
}

func TestReapsDoneTasks(t *testing.T) {
	m := hw.RaptorLake()
	s := newSched(m)
	spin := workload.NewSpin("s", 0.002)
	p := s.Spawn(spin, hw.AllCPUs(m))
	s.Tick(0)
	cpu := p.CPU()
	// Run the task to completion.
	typ := m.TypeOf(cpu)
	ctx := &workload.ExecContext{CPU: cpu, Type: typ, FreqMHz: typ.MaxFreqMHz, Throughput: 1}
	spin.Run(ctx, 0.002, new(events.Stats))
	s.Tick(0.001)
	if s.RunningOn(cpu) != nil {
		t.Fatal("done task still occupies its CPU")
	}
	if len(s.Processes()) != 0 {
		t.Fatal("done task not reaped")
	}
}

func TestRoundRobinWhenOvercommitted(t *testing.T) {
	m := hw.OrangePi800()
	s := newSched(m)
	// 8 tasks on 6 CPUs: everyone should get CPU time via rotation.
	var procs []*Process
	for i := 0; i < 8; i++ {
		procs = append(procs, s.Spawn(workload.NewSpin("t", 100), hw.AllCPUs(m)))
	}
	ran := map[int]bool{}
	now := 0.0
	for i := 0; i < 200; i++ {
		now += 0.001
		s.Tick(now)
		for _, p := range procs {
			if p.CPU() >= 0 {
				ran[p.PID] = true
			}
		}
	}
	if len(ran) != 8 {
		t.Fatalf("only %d of 8 overcommitted tasks ever ran", len(ran))
	}
}

func TestHooksFireOnSwitches(t *testing.T) {
	m := hw.RaptorLake()
	s := newSched(m)
	var ins, outs int
	s.AddHook(hookFuncs{
		in:  func(pid, cpu int, now float64) { ins++ },
		out: func(pid, cpu int, now float64) { outs++ },
	})
	p := s.Spawn(workload.NewSpin("h", 10), hw.AllCPUs(m))
	s.Tick(0)
	if ins != 1 || outs != 0 {
		t.Fatalf("after placement ins=%d outs=%d", ins, outs)
	}
	s.SetAffinity(p.PID, hw.NewCPUSet(20))
	s.Tick(0.001)
	if ins != 2 || outs != 1 {
		t.Fatalf("after migration ins=%d outs=%d", ins, outs)
	}
}

type hookFuncs struct {
	in, out func(pid, cpu int, now float64)
}

func (h hookFuncs) SchedIn(pid, cpu int, now float64)  { h.in(pid, cpu, now) }
func (h hookFuncs) SchedOut(pid, cpu int, now float64) { h.out(pid, cpu, now) }

func TestPerturbationMigratesAcrossClasses(t *testing.T) {
	m := hw.RaptorLake()
	cfg := DefaultConfig()
	cfg.MigrateToEffProb = 0.1
	cfg.MigrateToPerfProb = 0.3
	cfg.Seed = 42
	s := New(m, cfg)
	p := s.Spawn(workload.NewSpin("w", 1000), hw.AllCPUs(m))
	timeOn := map[hw.CoreClass]int{}
	now := 0.0
	for i := 0; i < 5000; i++ {
		now += 0.001
		s.Tick(now)
		timeOn[m.TypeOf(p.CPU()).Class]++
	}
	if timeOn[hw.Performance] == 0 || timeOn[hw.Efficiency] == 0 {
		t.Fatalf("single task never migrated across classes: %v", timeOn)
	}
	if timeOn[hw.Performance] <= timeOn[hw.Efficiency] {
		t.Errorf("task should spend most time on P-cores: %v", timeOn)
	}
	if s.Migrations() == 0 {
		t.Error("migrations counter did not advance")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		m := hw.RaptorLake()
		cfg := DefaultConfig()
		cfg.MigrateToEffProb = 0.1
		cfg.Seed = 7
		s := New(m, cfg)
		p := s.Spawn(workload.NewSpin("d", 1000), hw.AllCPUs(m))
		var placements []int
		now := 0.0
		for i := 0; i < 1000; i++ {
			now += 0.001
			s.Tick(now)
			placements = append(placements, p.CPU())
		}
		return placements
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement diverged at tick %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNoClassPreferencePlacement(t *testing.T) {
	// On the OrangePi the LITTLE cluster enumerates first: a class-blind
	// scheduler parks a task on cpu0 (LITTLE) while the hybrid-aware one
	// picks a big core.
	m := hw.OrangePi800()
	aware := newSched(m)
	p1 := aware.Spawn(workload.NewSpin("a", 1), hw.AllCPUs(m))
	aware.Tick(0)
	if m.TypeOf(p1.CPU()).Class != hw.Performance {
		t.Errorf("aware scheduler placed on %s", m.TypeOf(p1.CPU()).Name)
	}

	cfg := DefaultConfig()
	cfg.MigrateToEffProb = 0
	cfg.MigrateToPerfProb = 0
	cfg.NoClassPreference = true
	blind := New(m, cfg)
	p2 := blind.Spawn(workload.NewSpin("b", 1), hw.AllCPUs(m))
	blind.Tick(0)
	if got := p2.CPU(); got != 0 {
		t.Errorf("class-blind scheduler placed on cpu%d, want cpu0", got)
	}
}
