package workload

import (
	"fmt"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
)

// Stride is a pointer-walk over a fixed-size array at a fixed byte stride:
// the classic cache-validation microbenchmark (Röhl et al.), chosen because
// its event counts have a closed form. Unlike Stream it carries no RNG —
// every quantity it emits is an exact function of the core type, the cache
// geometry, and the instruction budget, so the validation suite can compute
// expected LLC reference/miss counts analytically and score the measured
// counters against them.
const (
	// StrideLineBytes is the cache line size assumed by the miss model.
	StrideLineBytes = 64
	// StrideLoadFrac is the load fraction of the stride kernel's
	// instruction stream (one load per address-increment/compare pair).
	StrideLoadFrac = 0.5
	// DefaultLLCMissPenaltyCycles is used when a core type does not
	// declare hw.CoreType.LLCMissPenaltyCycles.
	DefaultLLCMissPenaltyCycles = 200.0
)

// StrideMissRates are the per-level conditional miss rates of a strided
// sweep: L1 is the fraction of L1D references that miss, L2 the fraction
// of those that also miss L2, LLC the fraction of those that miss the LLC.
type StrideMissRates struct {
	L1  float64
	L2  float64
	LLC float64
}

// Chain returns the fraction of L1D references that miss all the way to
// DRAM (the product of the conditional rates).
func (r StrideMissRates) Chain() float64 { return r.L1 * r.L2 * r.LLC }

// StrideRates derives the miss rates of sweeping footprintKB of memory at
// strideBytes on core type t with an llcKB last-level cache. The model is
// the standard geometry argument: a sweep whose footprint fits in a level
// never misses there (after warm-up, which the closed form ignores); a
// sweep that exceeds the level has zero temporal reuse, so every distinct
// line touched misses — a fraction min(1, stride/line) of accesses when
// the stride is smaller than a line, every access otherwise.
func StrideRates(t *hw.CoreType, llcKB, strideBytes, footprintKB int) StrideMissRates {
	if strideBytes < 1 {
		strideBytes = 1
	}
	newLine := float64(strideBytes) / StrideLineBytes
	if newLine > 1 {
		newLine = 1
	}
	missAt := func(levelKB float64) float64 {
		if levelKB <= 0 || float64(footprintKB) <= levelKB {
			return 0
		}
		return 1
	}
	// The first level sees the raw access stream, so line-granularity
	// spatial reuse applies there; deeper levels only see lines that
	// already missed above, which are distinct lines by construction.
	return StrideMissRates{
		L1:  newLine * missAt(float64(t.L1DKB)),
		L2:  missAt(float64(t.L2KB)),
		LLC: missAt(float64(llcKB)),
	}
}

// StrideCPI is the cycles-per-instruction of the stride kernel on core
// type t: the pipeline term plus the fully exposed DRAM penalty of every
// load that misses the whole hierarchy (a dependent pointer walk has no
// memory-level parallelism to hide it).
func StrideCPI(t *hw.CoreType, r StrideMissRates) float64 {
	pen := t.LLCMissPenaltyCycles
	if pen <= 0 {
		pen = DefaultLLCMissPenaltyCycles
	}
	return 1/t.BaseIPC + StrideLoadFrac*r.Chain()*pen
}

// Stride retires a fixed number of instructions walking footprintKB of
// memory at strideBytes. Deterministic: no RNG, no history dependence —
// the emitted stats are an exact function of (core type, geometry, dt).
type Stride struct {
	name        string
	strideBytes int
	footprintKB int
	llcKB       int
	instrLeft   float64
	total       float64
}

// NewStride returns a stride task retiring the given number of
// instructions. llcKB is the last-level cache size of the machine the task
// will run on (a machine property, not a core-type property, so the caller
// supplies it).
func NewStride(name string, instructions float64, strideBytes, footprintKB, llcKB int) *Stride {
	return &Stride{
		name:        name,
		strideBytes: strideBytes,
		footprintKB: footprintKB,
		llcKB:       llcKB,
		instrLeft:   instructions,
		total:       instructions,
	}
}

// Name implements Task.
func (s *Stride) Name() string { return s.name }

// Ready implements Task.
func (s *Stride) Ready() bool { return !s.Done() }

// Done implements Task.
func (s *Stride) Done() bool { return s.instrLeft <= 0 }

// TotalInstructions returns the instruction budget the task was built with.
func (s *Stride) TotalInstructions() float64 { return s.total }

// Rates returns the miss rates the task exhibits on core type t.
func (s *Stride) Rates(t *hw.CoreType) StrideMissRates {
	return StrideRates(t, s.llcKB, s.strideBytes, s.footprintKB)
}

// Run implements Task.
func (s *Stride) Run(ctx *ExecContext, dt float64, out *events.Stats) float64 {
	if s.Done() || dt <= 0 || ctx.FreqMHz <= 0 {
		*out = events.Stats{}
		return 0
	}
	r := s.Rates(ctx.Type)
	cpi := StrideCPI(ctx.Type, r)
	cycles := ctx.CyclesIn(dt) * ctx.Throughput
	instr := cycles / cpi
	if instr > s.instrLeft {
		instr = s.instrLeft
		used := instr * cpi
		dt *= used / cycles
		cycles = used
	}
	s.instrLeft -= instr
	// busyFrac is the fraction of cycles the pipeline retires rather than
	// stalls on DRAM; activity scales with it so a DRAM-bound sweep draws
	// less dynamic power than a cache-resident one.
	busyFrac := (1 / ctx.Type.BaseIPC) / cpi
	p := Profile{
		BranchFrac:     0.0625, // one backedge per 16 unrolled iterations
		BranchMissRate: 0,      // trip count is static: perfectly predicted
		LoadFrac:       StrideLoadFrac,
		StoreFrac:      0,
		L1MissRate:     r.L1,
		L2MissRate:     r.L2,
		LLCMissRate:    r.LLC,
		StallFrac:      1 - busyFrac,
	}
	*out = Synth(ctx.Type, instr, cycles, dt, p)
	return 0.25 + 0.5*busyFrac
}

// String describes the geometry for test output.
func (s *Stride) String() string {
	return fmt.Sprintf("stride{%s stride=%dB footprint=%dKB llc=%dKB}",
		s.name, s.strideBytes, s.footprintKB, s.llcKB)
}
