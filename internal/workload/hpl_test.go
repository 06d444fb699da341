package workload

import (
	"math"
	"testing"
	"testing/quick"

	"hetpapi/internal/hw"
)

func TestNewHPLValidation(t *testing.T) {
	bad := []HPLConfig{
		{N: 0, NB: 192, Threads: 1},
		{N: 1000, NB: 0, Threads: 1},
		{N: 100, NB: 192, Threads: 1},
		{N: 1000, NB: 100, Threads: 0},
	}
	for _, cfg := range bad {
		cfg.Strategy = OpenBLASx86()
		if _, err := NewHPL(cfg); err == nil {
			t.Errorf("NewHPL(%+v) accepted invalid config", cfg)
		}
	}
}

func TestHPLFlopCountCanonical(t *testing.T) {
	h, err := NewHPL(HPLConfig{N: 5760, NB: 192, Threads: 4, Strategy: OpenBLASx86()})
	if err != nil {
		t.Fatal(err)
	}
	n := 5760.0
	want := 2.0/3.0*n*n*n + 2*n*n
	if math.Abs(h.TotalFlops()-want) > 1 {
		t.Fatalf("TotalFlops = %g, want %g", h.TotalFlops(), want)
	}
	var sum float64
	for _, f := range h.iterFlops {
		sum += f
	}
	if math.Abs(sum-want) > want*1e-9 {
		t.Fatalf("iteration flops sum %g != total %g", sum, want)
	}
}

// driveHPL runs every thread on its assigned context each tick until done.
func driveHPL(t *testing.T, h *HPL, ctxs []*ExecContext, tick float64) (elapsed float64) {
	t.Helper()
	tasks := h.Threads()
	for i := 0; i < 10_000_000 && !h.Done(); i++ {
		for j, task := range tasks {
			runSlice(task, ctxs[j], tick)
		}
		elapsed += tick
	}
	if !h.Done() {
		t.Fatal("HPL never finished")
	}
	return elapsed
}

func mixedCtxs(m *hw.Machine, nP, nE int) []*ExecContext {
	var out []*ExecContext
	p := m.TypeByName("P-core")
	e := m.TypeByName("E-core")
	for i := 0; i < nP; i++ {
		out = append(out, &ExecContext{CPU: 2 * i, Type: p, FreqMHz: 3000, Throughput: 1})
	}
	for i := 0; i < nE; i++ {
		out = append(out, &ExecContext{CPU: 16 + i, Type: e, FreqMHz: 2400, Throughput: 1})
	}
	return out
}

func TestStaticStragglersHurtAllCore(t *testing.T) {
	// The central Table II effect: with a static equal split, adding
	// E-cores to 8 P-cores REDUCES throughput relative to scaling the
	// P-only rate, because every iteration waits for the slowest thread.
	m := hw.RaptorLake()
	const n, nb = 4800, 192

	run := func(strategy Strategy, nP, nE int) float64 {
		h, err := NewHPL(HPLConfig{N: n, NB: nb, Threads: nP + nE, Strategy: strategy, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		el := driveHPL(t, h, mixedCtxs(m, nP, nE), 0.001)
		return h.Gflops(el)
	}

	pOnly := run(OpenBLASx86(), 8, 0)
	allStatic := run(OpenBLASx86(), 8, 8)
	allDynamic := run(IntelMKL(), 8, 8)

	if allStatic >= pOnly {
		t.Errorf("static all-core %.1f >= P-only %.1f; stragglers must hurt", allStatic, pOnly)
	}
	if allDynamic <= pOnly {
		t.Errorf("dynamic all-core %.1f <= P-only %.1f; work stealing must help", allDynamic, pOnly)
	}
	if allDynamic <= allStatic {
		t.Errorf("dynamic %.1f <= static %.1f", allDynamic, allStatic)
	}
}

func TestStaticInstructionShareSkewsToFastCores(t *testing.T) {
	// Table III: under the static split the P threads spin at barriers,
	// inflating the P-side instruction share well above the E share.
	m := hw.RaptorLake()
	h, err := NewHPL(HPLConfig{N: 4800, NB: 192, Threads: 16, Strategy: OpenBLASx86(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := mixedCtxs(m, 8, 8)
	tasks := h.Threads()
	var pInstr, eInstr float64
	for i := 0; i < 10_000_000 && !h.Done(); i++ {
		for j, task := range tasks {
			st, _ := runSlice(task, ctxs[j], 0.001)
			if ctxs[j].Type.Class == hw.Performance {
				pInstr += st.Instructions
			} else {
				eInstr += st.Instructions
			}
		}
	}
	share := pInstr / (pInstr + eInstr)
	if share < 0.60 || share > 0.92 {
		t.Errorf("P instruction share = %.2f, want in [0.60, 0.92] (paper: 0.80)", share)
	}
}

func TestLLCMissRatesMatchStrategy(t *testing.T) {
	m := hw.RaptorLake()
	for _, tc := range []struct {
		strategy Strategy
		wantP    float64
		wantE    float64
		tol      float64
	}{
		{OpenBLASx86(), 0.86, 0.0005, 0.05},
		{IntelMKL(), 0.64, 0.0003, 0.05},
	} {
		h, err := NewHPL(HPLConfig{N: 2880, NB: 192, Threads: 16, Strategy: tc.strategy, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		ctxs := mixedCtxs(m, 8, 8)
		tasks := h.Threads()
		var refs, miss [2]float64
		for i := 0; i < 10_000_000 && !h.Done(); i++ {
			for j, task := range tasks {
				st, _ := runSlice(task, ctxs[j], 0.001)
				c := ctxs[j].Type.Class
				refs[c] += st.LLCRefs
				miss[c] += st.LLCMisses
			}
		}
		gotP := miss[hw.Performance] / refs[hw.Performance]
		gotE := miss[hw.Efficiency] / refs[hw.Efficiency]
		if math.Abs(gotP-tc.wantP) > tc.tol {
			t.Errorf("%s: P miss rate %.3f, want ~%.2f", tc.strategy.Name, gotP, tc.wantP)
		}
		if gotE > tc.wantE*3 {
			t.Errorf("%s: E miss rate %.5f, want ~%.4f", tc.strategy.Name, gotE, tc.wantE)
		}
	}
}

func TestDynamicBalancesFlopsByRate(t *testing.T) {
	m := hw.RaptorLake()
	h, err := NewHPL(HPLConfig{N: 2880, NB: 192, Threads: 4, Strategy: IntelMKL(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := mixedCtxs(m, 2, 2)
	driveHPL(t, h, ctxs, 0.001)
	flops := h.FlopsByThread()
	// P threads at 3 GHz x16 flops/c vs E at 2.4 GHz x8: ratio ~2.5.
	ratio := flops[0] / flops[2]
	if ratio < 1.8 || ratio > 3.2 {
		t.Errorf("P/E flop ratio = %.2f, want ~2.5 (dynamic balancing)", ratio)
	}
}

func TestProgressAndConservation(t *testing.T) {
	h, err := NewHPL(HPLConfig{N: 960, NB: 192, Threads: 2, Strategy: OpenBLASx86(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := hw.RaptorLake()
	ctxs := mixedCtxs(m, 1, 1)
	if h.Progress() != 0 {
		t.Fatal("fresh run must have zero progress")
	}
	driveHPL(t, h, ctxs, 0.001)
	if math.Abs(h.Progress()-1) > 1e-9 {
		t.Fatalf("final progress = %g, want 1", h.Progress())
	}
	var sum float64
	for _, f := range h.FlopsByThread() {
		sum += f
	}
	if math.Abs(sum-h.TotalFlops()) > h.TotalFlops()*1e-9 {
		t.Fatalf("thread flops %g != total %g", sum, h.TotalFlops())
	}
}

func TestGflopsFigureOfMerit(t *testing.T) {
	h, _ := NewHPL(HPLConfig{N: 960, NB: 192, Threads: 1, Strategy: OpenBLASx86()})
	if g := h.Gflops(0); g != 0 {
		t.Error("zero elapsed must give zero Gflops")
	}
	if g := h.Gflops(1); math.Abs(g-h.TotalFlops()/1e9) > 1e-9 {
		t.Errorf("Gflops(1s) = %g", g)
	}
}

// Property: for any valid (N, NB, threads), the run terminates and retires
// exactly its canonical flop count.
func TestHPLTerminationProperty(t *testing.T) {
	m := hw.RaptorLake()
	f := func(nRaw, nbRaw, thRaw uint8) bool {
		n := 480 + int(nRaw)%8*240
		nb := []int{64, 96, 128, 192}[int(nbRaw)%4]
		threads := 1 + int(thRaw)%4
		strategy := OpenBLASx86()
		if thRaw%2 == 0 {
			strategy = IntelMKL()
		}
		h, err := NewHPL(HPLConfig{N: n, NB: nb, Threads: threads, Strategy: strategy, Seed: int64(nRaw)})
		if err != nil {
			return false
		}
		ctxs := mixedCtxs(m, threads, 0)
		for i := 0; i < 10_000_000 && !h.Done(); i++ {
			for j, task := range h.Threads() {
				runSlice(task, ctxs[j], 0.01)
			}
		}
		return h.Done() && math.Abs(h.Progress()-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
