package workload

import (
	"math"

	"hetpapi/internal/events"
)

// BurstyLoop is an instruction loop whose retirement rate alternates
// between a fast and a slow phase. Phase-varying workloads are exactly
// where multiplexed counter estimates go wrong: an event scheduled onto
// the PMU only during fast phases extrapolates a count that is too high,
// and vice versa. The total retired instruction count stays exact, making
// the loop a ground truth for multiplex-error studies.
type BurstyLoop struct {
	name         string
	instrPerRep  float64
	repsTotal    int
	repsDone     int
	repInstrLeft float64
	totalInstr   float64

	// phase behaviour
	periodSec float64
	slowFrac  float64
	elapsed   float64
}

// NewBurstyLoop returns a loop retiring instrPerRep instructions reps
// times, alternating every periodSec between full speed and slowFrac of
// full speed.
func NewBurstyLoop(name string, instrPerRep float64, reps int, periodSec, slowFrac float64) *BurstyLoop {
	if periodSec <= 0 {
		periodSec = 0.005
	}
	if slowFrac <= 0 || slowFrac > 1 {
		slowFrac = 0.25
	}
	return &BurstyLoop{
		name:         name,
		instrPerRep:  instrPerRep,
		repsTotal:    reps,
		repInstrLeft: instrPerRep,
		periodSec:    periodSec,
		slowFrac:     slowFrac,
	}
}

// Name implements Task.
func (l *BurstyLoop) Name() string { return l.name }

// Ready implements Task.
func (l *BurstyLoop) Ready() bool { return !l.Done() }

// Done implements Task.
func (l *BurstyLoop) Done() bool { return l.repsDone >= l.repsTotal }

// RepsDone returns the completed repetitions.
func (l *BurstyLoop) RepsDone() int { return l.repsDone }

// TotalInstructions returns the instructions retired so far.
func (l *BurstyLoop) TotalInstructions() float64 { return l.totalInstr }

// InFastPhase reports whether the loop is currently in its fast phase.
func (l *BurstyLoop) InFastPhase() bool {
	return math.Mod(l.elapsed, 2*l.periodSec) < l.periodSec
}

// Run implements Task.
func (l *BurstyLoop) Run(ctx *ExecContext, dt float64, out *events.Stats) float64 {
	if l.Done() || dt <= 0 || ctx.FreqMHz <= 0 {
		*out = events.Stats{}
		return 0
	}
	factor := 1.0
	if !l.InFastPhase() {
		factor = l.slowFrac
	}
	l.elapsed += dt
	cycles := ctx.CyclesIn(dt) * ctx.Throughput
	budget := cycles * ctx.Type.BaseIPC * factor
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
	*out = Synth(ctx.Type, retired, cycles, dt, ScalarProfile())
	return 0.3 + 0.4*factor
}
