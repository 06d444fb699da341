package dvfs

// NextUpdateSec is the governor's deadline in the simulator's step
// loop; between boundaries Update provably mutates nothing, which is
// what lets idle ticks skip the call.

import (
	"testing"

	"hetpapi/internal/hw"
)

func TestNextUpdateSecBeforeStart(t *testing.T) {
	g := New(hw.RaptorLake(), DefaultConfig())
	// An un-started governor must update immediately: the first Update
	// call initializes its clocks.
	if got := g.NextUpdateSec(); got != 0 {
		t.Fatalf("NextUpdateSec before first Update = %v, want 0", got)
	}
}

func TestNextUpdateSecTracksLoops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PowerPeriodSec = 0.01
	cfg.ThermalPeriodSec = 0.5
	g := New(hw.RaptorLake(), cfg)
	g.Update(0, 50, 150, 40)
	// Both loops just ran at t=0: the next deadline is the faster
	// (power) loop.
	if got := g.NextUpdateSec(); got != 0.01 {
		t.Fatalf("NextUpdateSec after t=0 update = %v, want 0.01", got)
	}
	// Advance past several power periods; the power clock follows, the
	// thermal clock still waits for 0.5.
	g.Update(0.02, 50, 150, 40)
	if got := g.NextUpdateSec(); got != 0.03 {
		t.Fatalf("NextUpdateSec after t=0.02 update = %v, want 0.03", got)
	}
	// Near the thermal boundary the thermal loop becomes the earlier
	// deadline.
	g.Update(0.495, 50, 150, 40)
	if got := g.NextUpdateSec(); got != 0.5 {
		t.Fatalf("NextUpdateSec after t=0.495 update = %v, want 0.5 (thermal)", got)
	}
}

// TestUpdateBetweenDeadlinesIsNoOp pins the property the simulator's
// idle path relies on: calling Update strictly between both loop
// boundaries changes no governor state.
func TestUpdateBetweenDeadlinesIsNoOp(t *testing.T) {
	m := hw.RaptorLake()
	g := New(m, DefaultConfig())
	g.Update(0, 120, 65, 80) // hot + over cap so levels actually move
	level := func() []float64 {
		var out []float64
		for i := range m.Types {
			out = append(out, g.TargetMHz(&m.Types[i]))
		}
		return out
	}
	before := level()
	next := g.NextUpdateSec()
	// A mid-interval call with wildly different telemetry must not act.
	g.Update(next/2, 500, 1, 200)
	after := level()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("type %d target changed %v -> %v on a between-deadlines Update",
				i, before[i], after[i])
		}
	}
	if got := g.NextUpdateSec(); got != next {
		t.Fatalf("NextUpdateSec moved %v -> %v on a between-deadlines Update", next, got)
	}
}
