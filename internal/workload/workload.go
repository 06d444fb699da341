// Package workload models the programs that run on the simulated machines:
// the HPL linpack benchmark with hybrid-oblivious and hybrid-aware threading
// strategies (hpl.go), plus micro-workloads used by the PAPI hybrid tests
// (a fixed instruction loop, a spin loop, and a memory streamer).
//
// A Task is the schedulable unit. Each simulation tick the scheduler places
// tasks on CPUs and calls Run with the core's execution context; Run writes
// the architectural event quantities produced in that slice and returns a
// power activity factor in [0, 1] that feeds the power model.
package workload

import (
	"math/rand"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
)

// ExecContext describes the core a task executes on for one time slice.
type ExecContext struct {
	// CPU is the logical CPU id.
	CPU int
	// Type is the core type of the CPU.
	Type *hw.CoreType
	// FreqMHz is the core frequency during the slice.
	FreqMHz float64
	// Throughput is the per-thread throughput factor (1.0, or the SMT
	// contention factor when the sibling thread is busy).
	Throughput float64
}

// CyclesIn returns the core cycles available in dt seconds at the context's
// frequency.
func (c *ExecContext) CyclesIn(dt float64) float64 {
	return c.FreqMHz * 1e6 * dt
}

// Task is a schedulable entity.
type Task interface {
	// Name identifies the task in traces and test output.
	Name() string
	// Ready reports whether the task wants CPU time now.
	Ready() bool
	// Done reports whether the task has finished; done tasks are removed
	// from the scheduler.
	Done() bool
	// Run executes the task for dt seconds on the context, overwriting
	// out with the produced event quantities, and returns the power
	// activity factor in [0, 1] (1 = full vector load, small values = spin
	// or idle wait).
	Run(ctx *ExecContext, dt float64, out *events.Stats) float64
}

// Phased is implemented by tasks with distinguishable internal phases
// (notably Sequence). Profilers use it to attribute samples to the phase
// executing at overflow time, the way PAPI regions label a caliper.
type Phased interface {
	Task
	// PhaseName returns the name of the phase currently executing, or ""
	// when no phase is active.
	PhaseName() string
}

// Profile parameterizes synthetic instruction-stream statistics.
type Profile struct {
	// BranchFrac is the fraction of instructions that are branches;
	// BranchMissRate is the fraction of branches mispredicted.
	BranchFrac     float64
	BranchMissRate float64
	// LoadFrac and StoreFrac are memory-operation fractions of the
	// instruction stream.
	LoadFrac  float64
	StoreFrac float64
	// L1MissRate, L2MissRate, LLCMissRate chain the cache hierarchy:
	// L1 misses feed L2 references, L2 misses feed LLC references.
	L1MissRate  float64
	L2MissRate  float64
	LLCMissRate float64
	// StallFrac is the fraction of cycles stalled.
	StallFrac float64
}

// SpinProfile is the instruction mix of a spin-wait loop: tight,
// predictable, cache-resident.
func SpinProfile() Profile {
	return Profile{
		BranchFrac:     0.33,
		BranchMissRate: 0.001,
		LoadFrac:       0.30,
		StoreFrac:      0.01,
		L1MissRate:     0.001,
		L2MissRate:     0.05,
		LLCMissRate:    0.02,
		StallFrac:      0.05,
	}
}

// ScalarProfile is a generic integer workload mix.
func ScalarProfile() Profile {
	return Profile{
		BranchFrac:     0.20,
		BranchMissRate: 0.02,
		LoadFrac:       0.28,
		StoreFrac:      0.12,
		L1MissRate:     0.03,
		L2MissRate:     0.25,
		LLCMissRate:    0.30,
		StallFrac:      0.20,
	}
}

// Synth builds the event quantities of executing instr instructions over
// cycles core cycles on core type t, using the given instruction mix.
// refCycles is derived from dt at the TSC (base) rate.
func Synth(t *hw.CoreType, instr, cycles, dt float64, p Profile) events.Stats {
	loads := instr * p.LoadFrac
	stores := instr * p.StoreFrac
	l1 := loads + stores
	l1m := l1 * p.L1MissRate
	l2 := l1m
	l2m := l2 * p.L2MissRate
	llc := l2m
	llcm := llc * p.LLCMissRate
	branches := instr * p.BranchFrac
	return events.Stats{
		Cycles:       cycles,
		RefCycles:    t.BaseFreqMHz * 1e6 * dt,
		Instructions: instr,
		Branches:     branches,
		BranchMisses: branches * p.BranchMissRate,
		Loads:        loads,
		Stores:       stores,
		L1DRefs:      l1,
		L1DMisses:    l1m,
		L2Refs:       l2,
		L2Misses:     l2m,
		LLCRefs:      llc,
		LLCMisses:    llcm,
		StallCycles:  cycles * p.StallFrac,
		Slots:        cycles * t.IssueWidth,
	}
}

// SpinStats returns the quantities of spin-waiting for dt seconds.
func SpinStats(ctx *ExecContext, dt float64) events.Stats {
	cycles := ctx.CyclesIn(dt) * ctx.Throughput
	instr := cycles * ctx.Type.BaseIPC * 2.2 // tight spin loops retire near issue width
	return Synth(ctx.Type, instr, cycles, dt, SpinProfile())
}

// InstructionLoop is the workload of the paper's
// papi_hybrid_100m_one_eventset test: a loop retiring a fixed number of
// instructions, repeated a fixed number of times. The process is free to
// migrate between core types, so the per-PMU instruction counts split
// between P and E events while their sum stays at reps x instructions.
type InstructionLoop struct {
	name         string
	instrPerRep  float64
	repsTotal    int
	repsDone     int
	repInstrLeft float64
	totalInstr   float64
}

// NewInstructionLoop returns a loop retiring instrPerRep instructions reps
// times.
func NewInstructionLoop(name string, instrPerRep float64, reps int) *InstructionLoop {
	return &InstructionLoop{
		name:         name,
		instrPerRep:  instrPerRep,
		repsTotal:    reps,
		repInstrLeft: instrPerRep,
	}
}

// Name implements Task.
func (l *InstructionLoop) Name() string { return l.name }

// Ready implements Task.
func (l *InstructionLoop) Ready() bool { return !l.Done() }

// Done implements Task.
func (l *InstructionLoop) Done() bool { return l.repsDone >= l.repsTotal }

// RepsDone returns the number of completed repetitions.
func (l *InstructionLoop) RepsDone() int { return l.repsDone }

// TotalInstructions returns the instructions retired so far.
func (l *InstructionLoop) TotalInstructions() float64 { return l.totalInstr }

// Run implements Task.
func (l *InstructionLoop) Run(ctx *ExecContext, dt float64, out *events.Stats) float64 {
	if l.Done() || dt <= 0 || ctx.FreqMHz <= 0 {
		*out = events.Stats{}
		return 0
	}
	cycles := ctx.CyclesIn(dt) * ctx.Throughput
	budget := cycles * ctx.Type.BaseIPC
	var retired float64
	for budget > 0 && !l.Done() {
		take := budget
		if take > l.repInstrLeft {
			take = l.repInstrLeft
		}
		l.repInstrLeft -= take
		retired += take
		budget -= take
		if l.repInstrLeft <= 0 {
			l.repsDone++
			l.repInstrLeft = l.instrPerRep
		}
	}
	l.totalInstr += retired
	usedCycles := retired / ctx.Type.BaseIPC
	*out = Synth(ctx.Type, retired, usedCycles, dt*usedCycles/cycles, ScalarProfile())
	return 0.6 * usedCycles / cycles
}

// Spin is a pure busy-wait task running for a fixed simulated duration.
type Spin struct {
	name      string
	remaining float64
}

// NewSpin returns a spin task lasting the given simulated seconds.
func NewSpin(name string, seconds float64) *Spin {
	return &Spin{name: name, remaining: seconds}
}

// Name implements Task.
func (s *Spin) Name() string { return s.name }

// Ready implements Task.
func (s *Spin) Ready() bool { return !s.Done() }

// Done implements Task.
func (s *Spin) Done() bool { return s.remaining <= 0 }

// Run implements Task.
func (s *Spin) Run(ctx *ExecContext, dt float64, out *events.Stats) float64 {
	if s.Done() {
		*out = events.Stats{}
		return 0
	}
	if dt > s.remaining {
		dt = s.remaining
	}
	s.remaining -= dt
	*out = SpinStats(ctx, dt)
	return ctx.Type.SpinActivity
}

// Stream is a memory-streaming task with a configurable LLC miss rate; it
// exercises the cache-event counters.
type Stream struct {
	name       string
	instrLeft  float64
	total      float64
	miss       float64
	rng        *rand.Rand
	memBoundID float64
}

// NewStream returns a streaming task retiring the given number of
// instructions with the given LLC miss rate.
func NewStream(name string, instructions, llcMissRate float64, seed int64) *Stream {
	return &Stream{
		name:      name,
		instrLeft: instructions,
		total:     instructions,
		miss:      llcMissRate,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Name implements Task.
func (s *Stream) Name() string { return s.name }

// Ready implements Task.
func (s *Stream) Ready() bool { return !s.Done() }

// Done implements Task.
func (s *Stream) Done() bool { return s.instrLeft <= 0 }

// Run implements Task.
func (s *Stream) Run(ctx *ExecContext, dt float64, out *events.Stats) float64 {
	if s.Done() {
		*out = events.Stats{}
		return 0
	}
	// Memory-bound: effective IPC well below base, worse on the small core.
	ipc := ctx.Type.BaseIPC * 0.4
	cycles := ctx.CyclesIn(dt) * ctx.Throughput
	instr := cycles * ipc
	if instr > s.instrLeft {
		cycles *= s.instrLeft / instr
		instr = s.instrLeft
	}
	s.instrLeft -= instr
	p := Profile{
		BranchFrac:     0.05,
		BranchMissRate: 0.01,
		LoadFrac:       0.45,
		StoreFrac:      0.15,
		L1MissRate:     0.5,
		L2MissRate:     0.8,
		LLCMissRate:    s.miss * (0.95 + 0.1*s.rng.Float64()),
		StallFrac:      0.6,
	}
	*out = Synth(ctx.Type, instr, cycles, dt, p)
	return 0.7
}
