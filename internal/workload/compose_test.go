package workload

import (
	"math"
	"testing"

	"hetpapi/internal/hw"
)

func TestSequenceRunsPhasesInOrder(t *testing.T) {
	m := hw.RaptorLake()
	ctx := pCtx(m)
	a := NewInstructionLoop("a", 1e6, 10)
	b := NewSpin("b", 0.01)
	c := NewInstructionLoop("c", 1e6, 10)
	seq := NewSequence("app", a, b, c)

	if seq.PhaseIndex() != 0 || seq.Phase() != Task(a) {
		t.Fatal("initial phase wrong")
	}
	var total float64
	ticks := 0
	for !seq.Done() && ticks < 10000 {
		st, act := runSlice(seq, ctx, 0.001)
		total += st.Instructions
		if act < 0 || act > 1 {
			t.Fatalf("activity %g", act)
		}
		ticks++
	}
	if !seq.Done() {
		t.Fatal("sequence never finished")
	}
	if !a.Done() || !b.Done() || !c.Done() {
		t.Fatal("phases incomplete")
	}
	if seq.Phase() != nil {
		t.Fatal("done sequence must have nil phase")
	}
	// The two loops contribute exactly 2e7; the spin adds more.
	if total < 2e7 {
		t.Fatalf("total instructions %g below the loops' 2e7", total)
	}
	// Running a done sequence is inert.
	if st, _ := runSlice(seq, ctx, 0.001); st.Instructions != 0 {
		t.Fatal("done sequence retired instructions")
	}
}

// TestSequenceSliceEndsWithPhase pins what a slice straddling a phase
// boundary retires: only the finishing phase's work. A 1M-instruction
// loop takes about a twelfth of a 1 ms slice on a Raptor Lake P-core, and
// the 1G-instruction loop after it starts only with the next slice.
func TestSequenceSliceEndsWithPhase(t *testing.T) {
	ctx := pCtx(hw.RaptorLake())
	short := NewInstructionLoop("short", 1e6, 1)
	long := NewInstructionLoop("long", 1e9, 1)
	seq := NewSequence("app", short, long)
	if st, _ := runSlice(seq, ctx, 0.001); st.Instructions != 1e6 {
		t.Fatalf("the straddling slice retired %g instructions, want the first phase's 1e6", st.Instructions)
	}
	if !short.Done() || seq.PhaseIndex() != 1 {
		t.Fatalf("after the straddling slice: first phase done %v, phase index %d", short.Done(), seq.PhaseIndex())
	}
	if st, _ := runSlice(seq, ctx, 0.001); st.Instructions <= 1e6 {
		t.Fatalf("the next slice retired %g instructions of the second phase, want a whole slice's worth", st.Instructions)
	}
}

func TestSequencePhaseIndexAdvances(t *testing.T) {
	m := hw.RaptorLake()
	ctx := pCtx(m)
	seq := NewSequence("app",
		NewSpin("p0", 0.005),
		NewSpin("p1", 0.005))
	seen := map[int]bool{}
	for i := 0; i < 100 && !seq.Done(); i++ {
		seen[seq.PhaseIndex()] = true
		runSlice(seq, ctx, 0.001)
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("phases observed: %v", seen)
	}
}

func TestBranchyProfile(t *testing.T) {
	m := hw.RaptorLake()
	b := NewBranchy("br", 1e8, 7)
	ctx := pCtx(m)
	var instr, branches, misses, cycles float64
	for i := 0; i < 100000 && !b.Done(); i++ {
		st, _ := runSlice(b, ctx, 0.001)
		instr += st.Instructions
		branches += st.Branches
		misses += st.BranchMisses
		cycles += st.Cycles
	}
	if !b.Done() {
		t.Fatal("branchy never finished")
	}
	if math.Abs(instr-1e8) > 1 {
		t.Fatalf("retired %g, want 1e8", instr)
	}
	if bf := branches / instr; bf < 0.3 || bf > 0.35 {
		t.Errorf("branch fraction = %.3f", bf)
	}
	if mr := misses / branches; mr < 0.07 || mr > 0.11 {
		t.Errorf("misprediction rate = %.3f, want ~0.09", mr)
	}
	// Effective IPC well below the core's base.
	if ipc := instr / cycles; ipc > ctx.Type.BaseIPC*0.6 {
		t.Errorf("branchy IPC %.2f too close to base %.2f", ipc, ctx.Type.BaseIPC)
	}
	var _ Task = (*Branchy)(nil)
	var _ Task = (*Sequence)(nil)
	var _ Task = (*BurstyLoop)(nil)
}
