package workload

import (
	"math/rand"

	"hetpapi/internal/events"
)

// Sequence chains tasks into phases executed back to back by one process —
// the shape of a real application (initialize, compute, write results)
// whose phases a user calipers separately with PAPI regions.
type Sequence struct {
	name  string
	tasks []Task
	idx   int
	phase events.Stats // what the current phase wrote this slice
}

// NewSequence returns a task running the given tasks in order.
func NewSequence(name string, tasks ...Task) *Sequence {
	return &Sequence{name: name, tasks: tasks}
}

// Name implements Task.
func (s *Sequence) Name() string { return s.name }

// Ready implements Task.
func (s *Sequence) Ready() bool { return !s.Done() }

// Done implements Task.
func (s *Sequence) Done() bool { return s.idx >= len(s.tasks) }

// PhaseIndex returns the index of the phase currently executing (or
// len(tasks) when done).
func (s *Sequence) PhaseIndex() int { return s.idx }

// Phase returns the currently executing task, or nil when done.
func (s *Sequence) Phase() Task {
	if s.Done() {
		return nil
	}
	return s.tasks[s.idx]
}

// PhaseName implements Phased: the name of the currently executing phase
// task ("" once the sequence has finished).
func (s *Sequence) PhaseName() string {
	if cur := s.Phase(); cur != nil {
		return cur.Name()
	}
	return ""
}

// Run implements Task, delegating to the current phase: the first that
// is not done. A slice runs at most one phase. When that phase finishes
// within the slice, the sequence advances, but the rest of the slice goes
// unused: the next phase starts with the next slice. Splitting the slice
// at the boundary would need each phase to report the time it used.
func (s *Sequence) Run(ctx *ExecContext, dt float64, out *events.Stats) float64 {
	*out = events.Stats{}
	if dt <= 1e-12 {
		return 0
	}
	for ; !s.Done(); s.idx++ {
		cur := s.tasks[s.idx]
		if cur.Done() {
			continue
		}
		act := cur.Run(ctx, dt, &s.phase)
		out.Add(s.phase)
		if cur.Done() {
			// The phase finished somewhere in this slice; the time it
			// left over is not given to the next phase.
			s.idx++
		}
		return act
	}
	return 0
}

// Branchy is a branch-heavy, poorly predicted workload (pointer chasing,
// data-dependent conditionals) — the profile studied by the
// branch-misprediction related work the paper cites (Whitehouse et al.).
type Branchy struct {
	name      string
	instrLeft float64
	rng       *rand.Rand
}

// NewBranchy returns a branchy task retiring the given instruction count.
func NewBranchy(name string, instructions float64, seed int64) *Branchy {
	return &Branchy{name: name, instrLeft: instructions, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Task.
func (b *Branchy) Name() string { return b.name }

// Ready implements Task.
func (b *Branchy) Ready() bool { return !b.Done() }

// Done implements Task.
func (b *Branchy) Done() bool { return b.instrLeft <= 0 }

// Run implements Task.
func (b *Branchy) Run(ctx *ExecContext, dt float64, out *events.Stats) float64 {
	if b.Done() || dt <= 0 || ctx.FreqMHz <= 0 {
		*out = events.Stats{}
		return 0
	}
	// Mispredictions gut the effective IPC, and the little in-order cores
	// suffer relatively less (they were not speculating as deep anyway).
	ipcFactor := 0.45
	if ctx.Type.Class == 1 { // hw.Efficiency
		ipcFactor = 0.55
	}
	cycles := ctx.CyclesIn(dt) * ctx.Throughput
	instr := cycles * ctx.Type.BaseIPC * ipcFactor
	if instr > b.instrLeft {
		cycles *= b.instrLeft / instr
		instr = b.instrLeft
	}
	b.instrLeft -= instr
	p := Profile{
		BranchFrac:     0.32,
		BranchMissRate: 0.09 * (0.95 + 0.1*b.rng.Float64()),
		LoadFrac:       0.30,
		StoreFrac:      0.05,
		L1MissRate:     0.06,
		L2MissRate:     0.30,
		LLCMissRate:    0.35,
		StallFrac:      0.45,
	}
	*out = Synth(ctx.Type, instr, cycles, dt, p)
	return 0.5
}
