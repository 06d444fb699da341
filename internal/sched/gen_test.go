package sched

// The generation counter and quiescence predicate are the scheduler's
// contract with the simulator's step loop: Gen() must tick on every
// mutation that can change placement or readiness, and Quiescent() must
// be true only when no tick could do any work — because the step loop
// skips scheduler ticks (and per-CPU scanning) for exactly as long as
// the generation holds and the machine stays quiescent.

import (
	"testing"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
	"hetpapi/internal/workload"
)

func TestGenBumpsOnMutations(t *testing.T) {
	m := hw.RaptorLake()
	s := New(m, DefaultConfig())
	last := s.Gen()
	bumped := func(what string) {
		t.Helper()
		if g := s.Gen(); g <= last {
			t.Fatalf("%s did not bump generation (still %d)", what, g)
		} else {
			last = g
		}
	}

	p := s.Spawn(workload.NewSpin("spin", 0.002), hw.AllCPUs(m))
	bumped("Spawn")

	s.Tick(0) // places the process
	if s.RunningOn(0) == nil && func() bool {
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			if s.RunningOn(cpu) != nil {
				return false
			}
		}
		return true
	}() {
		t.Fatal("tick did not place the spawned process")
	}
	bumped("Tick placement")

	if err := s.SetAffinity(p.PID, hw.NewCPUSet(0)); err != nil {
		t.Fatal(err)
	}
	bumped("SetAffinity")

	s.SetOnline(3, false, 0.001)
	bumped("SetOnline")

	// Run the task to completion, then tick so the scheduler reaps it.
	ctx := &workload.ExecContext{CPU: 0, Type: m.TypeOf(0), FreqMHz: 3000, Throughput: 1}
	for i := 0; i < 10 && !p.Task.Done(); i++ {
		p.Task.Run(ctx, 0.001, new(events.Stats))
	}
	if !p.Task.Done() {
		t.Fatal("spin did not finish")
	}
	s.Tick(0.05)
	bumped("reap")
}

func TestGenStableAcrossIdleTicks(t *testing.T) {
	m := hw.RaptorLake()
	s := New(m, DefaultConfig())
	g := s.Gen()
	for i := 0; i < 100; i++ {
		s.Tick(float64(i) * 0.001)
	}
	if s.Gen() != g {
		t.Fatalf("idle ticks bumped generation %d -> %d", g, s.Gen())
	}
}

func TestQuiescent(t *testing.T) {
	m := hw.RaptorLake()
	s := New(m, DefaultConfig())
	if !s.Quiescent() {
		t.Fatal("empty scheduler should be quiescent")
	}

	p := s.Spawn(workload.NewSpin("spin", 0.002), hw.AllCPUs(m))
	if s.Quiescent() {
		t.Fatal("ready unplaced process: not quiescent")
	}
	s.Tick(0)
	if s.Quiescent() {
		t.Fatal("placed process: not quiescent")
	}

	// Finish the task: still placed (and now done), both disqualify.
	ctx := &workload.ExecContext{CPU: 0, Type: m.TypeOf(0), FreqMHz: 3000, Throughput: 1}
	for i := 0; i < 10 && !p.Task.Done(); i++ {
		p.Task.Run(ctx, 0.001, new(events.Stats))
	}
	if s.Quiescent() {
		t.Fatal("done-but-unreaped process: not quiescent")
	}

	// After the reap tick the machine is idle again.
	s.Tick(0.05)
	if !s.Quiescent() {
		t.Fatal("after reap: quiescent again")
	}
}

func TestNextBalanceSec(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BalancePeriodSec = 0.004
	s := New(hw.RaptorLake(), cfg)
	if got := s.NextBalanceSec(); got != 0.004 {
		t.Fatalf("NextBalanceSec at boot = %v, want 0.004", got)
	}
	// Ticks before the boundary do not move it.
	s.Tick(0.001)
	s.Tick(0.002)
	if got := s.NextBalanceSec(); got != 0.004 {
		t.Fatalf("NextBalanceSec mid-period = %v, want 0.004", got)
	}
	// The balance tick advances the deadline a full period.
	s.Tick(0.004)
	if got := s.NextBalanceSec(); got != 0.008 {
		t.Fatalf("NextBalanceSec after balance = %v, want 0.008", got)
	}
}
