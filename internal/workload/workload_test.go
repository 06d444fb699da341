package workload

import (
	"math"
	"testing"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
)

// runSlice runs one slice of task into a fresh Stats and returns it with
// the activity factor.
func runSlice(task Task, ctx *ExecContext, dt float64) (events.Stats, float64) {
	var st events.Stats
	act := task.Run(ctx, dt, &st)
	return st, act
}

func pCtx(m *hw.Machine) *ExecContext {
	t := m.TypeByName("P-core")
	return &ExecContext{CPU: 0, Type: t, FreqMHz: t.MaxFreqMHz, Throughput: 1}
}

func eCtx(m *hw.Machine) *ExecContext {
	t := m.TypeByName("E-core")
	return &ExecContext{CPU: 16, Type: t, FreqMHz: t.MaxFreqMHz, Throughput: 1}
}

func TestCyclesIn(t *testing.T) {
	m := hw.RaptorLake()
	ctx := pCtx(m)
	if got := ctx.CyclesIn(0.001); math.Abs(got-5.1e6) > 1 {
		t.Fatalf("CyclesIn(1ms) = %g, want 5.1e6", got)
	}
}

func TestSynthCacheChain(t *testing.T) {
	m := hw.RaptorLake()
	p := Profile{
		LoadFrac: 0.4, StoreFrac: 0.1,
		L1MissRate: 0.1, L2MissRate: 0.5, LLCMissRate: 0.5,
		BranchFrac: 0.2, BranchMissRate: 0.05,
	}
	st := Synth(m.TypeByName("P-core"), 1000, 500, 0.001, p)
	if st.L1DRefs != 500 {
		t.Errorf("L1DRefs = %g, want 500", st.L1DRefs)
	}
	if st.L1DMisses != 50 || st.L2Refs != 50 {
		t.Errorf("L1 misses must feed L2: %g %g", st.L1DMisses, st.L2Refs)
	}
	if st.L2Misses != 25 || st.LLCRefs != 25 {
		t.Errorf("L2 misses must feed LLC: %g %g", st.L2Misses, st.LLCRefs)
	}
	if st.LLCMisses != 12.5 {
		t.Errorf("LLCMisses = %g", st.LLCMisses)
	}
	if st.Branches != 200 || st.BranchMisses != 10 {
		t.Errorf("branches %g misses %g", st.Branches, st.BranchMisses)
	}
	if st.Slots != 500*6 {
		t.Errorf("Slots = %g, want cycles*width", st.Slots)
	}
	// Cache levels are monotone: refs decrease down the hierarchy.
	if !(st.L1DRefs >= st.L2Refs && st.L2Refs >= st.LLCRefs && st.LLCRefs >= st.LLCMisses) {
		t.Error("cache hierarchy must be monotone")
	}
}

func TestInstructionLoopExactCount(t *testing.T) {
	m := hw.RaptorLake()
	loop := NewInstructionLoop("t", 1e6, 100)
	ctx := pCtx(m)
	var total float64
	for i := 0; i < 100000 && !loop.Done(); i++ {
		st, _ := runSlice(loop, ctx, 0.001)
		total += st.Instructions
	}
	if !loop.Done() {
		t.Fatal("loop never finished")
	}
	if math.Abs(total-100e6) > 1 {
		t.Fatalf("retired %g instructions, want exactly 100e6", total)
	}
	if loop.RepsDone() != 100 {
		t.Fatalf("RepsDone = %d", loop.RepsDone())
	}
	if math.Abs(loop.TotalInstructions()-100e6) > 1 {
		t.Fatalf("TotalInstructions = %g", loop.TotalInstructions())
	}
	// Running a finished loop is a no-op.
	st, act := runSlice(loop, ctx, 0.001)
	if st.Instructions != 0 || act != 0 {
		t.Error("finished loop must not retire instructions")
	}
}

func TestInstructionLoopFasterOnPCore(t *testing.T) {
	m := hw.RaptorLake()
	run := func(ctx *ExecContext) int {
		loop := NewInstructionLoop("t", 1e6, 100)
		ticks := 0
		for !loop.Done() {
			runSlice(loop, ctx, 0.001)
			ticks++
			if ticks > 1e6 {
				t.Fatal("runaway")
			}
		}
		return ticks
	}
	pt, et := run(pCtx(m)), run(eCtx(m))
	if pt >= et {
		t.Fatalf("P-core took %d ticks, E-core %d; P must be faster", pt, et)
	}
}

func TestSpinRunsForDuration(t *testing.T) {
	m := hw.RaptorLake()
	s := NewSpin("spin", 0.05)
	ctx := pCtx(m)
	ticks := 0
	for !s.Done() {
		st, act := runSlice(s, ctx, 0.001)
		if st.Instructions <= 0 {
			t.Fatal("spin must retire instructions")
		}
		if act != ctx.Type.SpinActivity {
			t.Fatalf("spin activity = %g, want %g", act, ctx.Type.SpinActivity)
		}
		if st.Flops != 0 {
			t.Fatal("spin must not retire flops")
		}
		ticks++
		if ticks > 1000 {
			t.Fatal("runaway spin")
		}
	}
	if ticks != 50 {
		t.Fatalf("spin lasted %d ticks, want 50", ticks)
	}
}

func TestStreamMissRate(t *testing.T) {
	m := hw.RaptorLake()
	s := NewStream("stream", 1e8, 0.9, 42)
	ctx := pCtx(m)
	var llc, miss float64
	for i := 0; i < 100000 && !s.Done(); i++ {
		st, _ := runSlice(s, ctx, 0.001)
		llc += st.LLCRefs
		miss += st.LLCMisses
	}
	if !s.Done() {
		t.Fatal("stream never finished")
	}
	rate := miss / llc
	if rate < 0.8 || rate > 1.0 {
		t.Fatalf("LLC miss rate = %g, want ~0.9", rate)
	}
}

func TestTaskInterfaceCompliance(t *testing.T) {
	var _ Task = (*InstructionLoop)(nil)
	var _ Task = (*Spin)(nil)
	var _ Task = (*Stream)(nil)
	var _ Task = (*HPLThread)(nil)
}

func TestZeroDtSafe(t *testing.T) {
	m := hw.RaptorLake()
	ctx := pCtx(m)
	loop := NewInstructionLoop("t", 1e6, 1)
	if st, _ := runSlice(loop, ctx, 0); st.Instructions != 0 {
		t.Error("zero dt must retire nothing")
	}
	h, err := NewHPL(HPLConfig{N: 960, NB: 192, Threads: 2, Strategy: OpenBLASx86()})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := runSlice(h.Threads()[0], ctx, 0); st.Instructions != 0 {
		t.Error("zero dt must retire nothing")
	}
}

func TestBurstyLoopExactCountAndPhases(t *testing.T) {
	m := hw.RaptorLake()
	ctx := pCtx(m)
	loop := NewBurstyLoop("b", 1e6, 50, 0.004, 0.2)
	var fastInstr, slowInstr float64
	ticks := 0
	for !loop.Done() && ticks < 1_000_000 {
		fast := loop.InFastPhase()
		st, act := runSlice(loop, ctx, 0.001)
		if fast {
			fastInstr += st.Instructions
		} else {
			slowInstr += st.Instructions
		}
		if act <= 0 || act > 1 {
			t.Fatalf("activity %g out of range", act)
		}
		ticks++
	}
	if !loop.Done() {
		t.Fatal("bursty loop never finished")
	}
	if got := loop.TotalInstructions(); math.Abs(got-50e6) > 1 {
		t.Fatalf("retired %g, want exactly 50e6", got)
	}
	if fastInstr+slowInstr != loop.TotalInstructions() {
		t.Fatal("phase accounting does not cover the total")
	}
	if fastInstr <= 3*slowInstr {
		t.Errorf("fast phase (%g) should dominate slow (%g) at slowFrac=0.2", fastInstr, slowInstr)
	}
	// Defaults kick in for bad parameters.
	l2 := NewBurstyLoop("b", 1e3, 1, -1, 5)
	if l2.periodSec <= 0 || l2.slowFrac <= 0 || l2.slowFrac > 1 {
		t.Fatal("bad parameters not defaulted")
	}
	// Finished loop is inert.
	if st, act := runSlice(loop, ctx, 0.001); st.Instructions != 0 || act != 0 {
		t.Fatal("finished bursty loop must be inert")
	}
}

// TestRunOverwritesOut holds every task to Run's contract: out is fully
// overwritten, whatever it held, on a working slice and on an inert one.
func TestRunOverwritesOut(t *testing.T) {
	m := hw.RaptorLake()
	ctx := pCtx(m)
	hpl := func() Task {
		h, err := NewHPL(HPLConfig{N: 3840, NB: 192, Threads: 1, Strategy: IntelMKL(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return h.Threads()[0]
	}
	for name, mk := range map[string]func() Task{
		"loop":     func() Task { return NewInstructionLoop("w", 1e6, 10) },
		"spin":     func() Task { return NewSpin("w", 1) },
		"stream":   func() Task { return NewStream("w", 1e9, 0.5, 1) },
		"stride":   func() Task { return NewStride("w", 1e9, 64, 4096, 30720) },
		"bursty":   func() Task { return NewBurstyLoop("w", 1e6, 10, 0.01, 0.3) },
		"branchy":  func() Task { return NewBranchy("w", 1e9, 1) },
		"sequence": func() Task { return NewSequence("w", NewSpin("a", 1), NewSpin("b", 1)) },
		"hpl":      hpl,
	} {
		dirty := events.Stats{Cycles: 1, Instructions: 2, LLCRefs: 3, Slots: 4, Stores: 5}
		clean, used := mk(), mk()
		want, _ := runSlice(clean, ctx, 0.001)
		used.Run(ctx, 0.001, &dirty)
		if dirty != want {
			t.Errorf("%s: working slice into a dirty Stats = %+v, want %+v", name, dirty, want)
		}
		dirty = events.Stats{Cycles: 1, Instructions: 2}
		if used.Run(ctx, 0, &dirty); dirty != (events.Stats{}) {
			t.Errorf("%s: empty slice left %+v", name, dirty)
		}
	}
}
