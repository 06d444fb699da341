package workload

import (
	"testing"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
)

func strideCtx(t *testing.T) *ExecContext {
	t.Helper()
	m := hw.RaptorLake()
	return &ExecContext{CPU: 0, Type: &m.Types[0], FreqMHz: 3000, Throughput: 1}
}

func TestStrideRatesGeometry(t *testing.T) {
	m := hw.RaptorLake()
	p := &m.Types[0] // P-core: L1D 48K, L2 2048K
	llcKB := 36 * 1024

	cases := []struct {
		name                string
		stride, footprintKB int
		want                StrideMissRates
	}{
		{"fits-l1", 64, 16, StrideMissRates{0, 0, 0}},
		{"fits-l2", 64, 1024, StrideMissRates{1, 0, 0}},
		{"fits-llc", 64, 8 * 1024, StrideMissRates{1, 1, 0}},
		{"dram", 64, 128 * 1024, StrideMissRates{1, 1, 1}},
		{"dram-wide-stride", 256, 128 * 1024, StrideMissRates{1, 1, 1}},
		{"dram-sub-line", 16, 128 * 1024, StrideMissRates{0.25, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := StrideRates(p, llcKB, tc.stride, tc.footprintKB)
			if got != tc.want {
				t.Fatalf("StrideRates(stride=%d footprint=%dKB) = %+v, want %+v",
					tc.stride, tc.footprintKB, got, tc.want)
			}
		})
	}
}

func TestStrideRatesMonotoneInFootprint(t *testing.T) {
	m := hw.Dimensity9000()
	llcKB := 6 * 1024
	for i := range m.Types {
		ct := &m.Types[i]
		prev := -1.0
		for _, fp := range []int{8, 64, 512, 2048, 8192, 32768} {
			chain := StrideRates(ct, llcKB, 64, fp).Chain()
			if chain < prev {
				t.Fatalf("%s: miss chain not monotone in footprint: %v at %dKB after %v",
					ct.Name, chain, fp, prev)
			}
			prev = chain
		}
	}
}

func TestStrideDeterministic(t *testing.T) {
	run := func() []events.Stats {
		s := NewStride("det", 50e6, 64, 128*1024, 36*1024)
		ctx := strideCtx(t)
		var out []events.Stats
		for !s.Done() {
			st, _ := runSlice(s, ctx, 1e-3)
			out = append(out, st)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d differs between identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestStrideInstructionConservation(t *testing.T) {
	const want = 25e6
	s := NewStride("conserve", want, 64, 128*1024, 36*1024)
	ctx := strideCtx(t)
	var got float64
	for !s.Done() {
		st, _ := runSlice(s, ctx, 1e-3)
		got += st.Instructions
	}
	if diff := got - want; diff > 1e-3 || diff < -1e-3 {
		t.Fatalf("retired %v instructions, want %v", got, want)
	}
}

func TestStrideClosedFormLLCMisses(t *testing.T) {
	// The whole point of the workload: total LLC misses must equal
	// instructions * loadFrac * missChain exactly, independent of how
	// the run is sliced into ticks.
	const instr = 40e6
	s := NewStride("oracle", instr, 64, 128*1024, 36*1024)
	ctx := strideCtx(t)
	chain := s.Rates(ctx.Type).Chain()
	var misses, refs float64
	for !s.Done() {
		st, _ := runSlice(s, ctx, 1e-3)
		misses += st.LLCMisses
		refs += st.LLCRefs
	}
	wantMisses := instr * StrideLoadFrac * chain
	if rel := (misses - wantMisses) / wantMisses; rel > 1e-9 || rel < -1e-9 {
		t.Fatalf("LLC misses %v, closed form %v (rel err %v)", misses, wantMisses, rel)
	}
	r := s.Rates(ctx.Type)
	wantRefs := instr * StrideLoadFrac * r.L1 * r.L2
	if rel := (refs - wantRefs) / wantRefs; rel > 1e-9 || rel < -1e-9 {
		t.Fatalf("LLC refs %v, closed form %v (rel err %v)", refs, wantRefs, rel)
	}
}

func TestStrideDRAMBoundSlowerThanCacheResident(t *testing.T) {
	ctx := strideCtx(t)
	fast := NewStride("cached", 10e6, 64, 16, 36*1024)
	slow := NewStride("dram", 10e6, 64, 128*1024, 36*1024)
	fs, _ := runSlice(fast, ctx, 1e-3)
	ss, _ := runSlice(slow, ctx, 1e-3)
	if ss.Instructions >= fs.Instructions {
		t.Fatalf("DRAM-bound sweep retired %v instr/tick, cache-resident only %v",
			ss.Instructions, fs.Instructions)
	}
	// Penalty default applies when the core type doesn't declare one.
	bare := *ctx.Type
	bare.LLCMissPenaltyCycles = 0
	bctx := *ctx
	bctx.Type = &bare
	slow2 := NewStride("dram-default-pen", 10e6, 64, 128*1024, 36*1024)
	bs, _ := runSlice(slow2, &bctx, 1e-3)
	if bs.Instructions >= fs.Instructions {
		t.Fatalf("default-penalty sweep not slower than cache-resident: %v vs %v",
			bs.Instructions, fs.Instructions)
	}
}
