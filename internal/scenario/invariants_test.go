package scenario

// White-box tests that each standard invariant actually detects the
// violation it exists for. The machines are healthy, so the tests break
// a counter for real (Kernel.Reset) or corrupt the invariant's view (its
// private state, or the hardware spec it reads its bounds from) and
// assert the check fires. A corrupted counter baseline must also clear
// the slot's recorded Kernel.Seq: the gated check re-reads only the
// counters the kernel updated.

import (
	"strings"
	"testing"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
	"hetpapi/internal/sched"
	"hetpapi/internal/sim"
	"hetpapi/internal/workload"
)

func bootFor(t *testing.T, machine string) *sim.Machine {
	t.Helper()
	s, err := Boot(Spec{Name: "invariant-test", Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wantViolation(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("invariant passed, want violation containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("violation %q does not contain %q", err, substr)
	}
}

func TestTimeMonotonicDetectsDrift(t *testing.T) {
	s := bootFor(t, "homogeneous")
	s.Step()
	inv := &timeMonotonic{}
	ctx := &Context{Sim: s, PrevNowSec: s.Now() - s.Tick()}
	if err := inv.Check(ctx); err != nil {
		t.Fatalf("one-tick advance flagged: %v", err)
	}
	ctx.PrevNowSec = s.Now()
	wantViolation(t, inv.Check(ctx), "backwards")
	ctx.PrevNowSec = s.Now() - 2*s.Tick()
	wantViolation(t, inv.Check(ctx), "want one tick")
}

func TestCounterMonotonicDetectsDecrease(t *testing.T) {
	s := bootFor(t, "homogeneous")
	ws, err := openWide(s)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.close(s)
	// Slot 0 is cpu0's instruction counter; a loop pinned there makes
	// it count.
	s.Spawn(workload.NewInstructionLoop("loop", 1e6, 100), hw.NewCPUSet(0))
	s.RunFor(0.05)
	ctx := &Context{Sim: s, Wide: ws.events}
	inv := &counterMonotonic{}
	if err := inv.Check(ctx); err != nil {
		t.Fatalf("clean machine flagged: %v", err)
	}
	if inv.wide[0].value == 0 {
		t.Fatal("cpu0 instructions did not count")
	}
	// Zero the counting counter under the invariant.
	if err := s.Kernel.Reset(ws.events[0].FD); err != nil {
		t.Fatal(err)
	}
	wantViolation(t, inv.Check(ctx), "decreased")
}

func TestCounterMonotonicDetectsForeignDecrease(t *testing.T) {
	s := bootFor(t, "raptorlake")
	ws, err := openWide(s)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.close(s)
	if len(ws.foreign) == 0 {
		t.Fatal("hybrid machine opened no foreign probes")
	}
	ctx := &Context{Sim: s, Wide: ws.events, Foreign: ws.foreign}
	inv := &counterMonotonic{}
	if err := inv.Check(ctx); err != nil {
		t.Fatalf("clean machine flagged: %v", err)
	}
	// A foreign probe never counts, so no Reset can lower it: pretend it
	// had reached an enormous value, and clear its seq so it is re-read.
	inv.foreign[len(ws.foreign)-1].value = 1 << 60
	inv.foreign[len(ws.foreign)-1].seq = 0
	wantViolation(t, inv.Check(ctx), "decreased")
}

// TestCounterMonotonicFreshBaselineAfterReopen: hotplugging a CPU off and
// on reopens its harness counters under new fds that count from zero.
// Baselines are tagged with the fd they were read from, so neither the
// own-PMU slot nor the foreign-PMU slot is flagged, and the fresh
// baseline still catches a real decrease.
func TestCounterMonotonicFreshBaselineAfterReopen(t *testing.T) {
	s := bootFor(t, "raptorlake")
	ws, err := openWide(s)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.close(s)
	p := s.Spawn(workload.NewInstructionLoop("loop", 1e9, 100), hw.AllCPUs(s.HW))
	s.RunFor(0.05)
	cpu := p.CPU()
	if cpu < 0 {
		t.Fatal("loop is not running")
	}
	wi, fi := -1, -1
	for i, we := range ws.events {
		if we.CPU == cpu && we.Kind == events.KindInstructions {
			wi = i
		}
	}
	for i, we := range ws.foreign {
		if we.CPU == cpu {
			fi = i
		}
	}
	if wi < 0 || fi < 0 {
		t.Fatalf("no wide/foreign instruction slots on cpu%d", cpu)
	}
	ctx := &Context{Sim: s, Wide: ws.events, Foreign: ws.foreign}
	inv := &counterMonotonic{}
	if err := inv.Check(ctx); err != nil {
		t.Fatalf("clean machine flagged: %v", err)
	}
	if inv.wide[wi].value == 0 {
		t.Fatalf("cpu%d instructions did not count", cpu)
	}
	// A foreign probe never counts; give its slot a baseline a reopened
	// descriptor would undercut if baselines were not tagged by fd.
	inv.foreign[fi].value = 1 << 40

	oldWide, oldForeign := ws.events[wi].FD, ws.foreign[fi].FD
	ws.offlineCPU(s, cpu)
	s.SetCPUOnline(cpu, false)
	if err := inv.Check(ctx); err != nil {
		t.Fatalf("offline cpu flagged: %v", err)
	}
	s.SetCPUOnline(cpu, true)
	ws.reopenCPU(s, cpu)
	if ws.events[wi].Dead || ws.events[wi].FD == oldWide || ws.foreign[fi].Dead || ws.foreign[fi].FD == oldForeign {
		t.Fatalf("cpu%d counters not reopened under new fds", cpu)
	}
	if err := inv.Check(ctx); err != nil {
		t.Fatalf("reopened counters flagged: %v", err)
	}
	if inv.wide[wi].fd != ws.events[wi].FD || inv.foreign[fi].fd != ws.foreign[fi].FD {
		t.Fatal("baselines not re-tagged with the new fds")
	}
	inv.foreign[fi].value = 1 << 40
	inv.foreign[fi].seq = 0
	wantViolation(t, inv.Check(ctx), "decreased")
}

func TestEnergyConservationDetectsLeak(t *testing.T) {
	s := bootFor(t, "homogeneous")
	s.RunFor(0.05) // accrue real package energy
	inv := energyConservation{}
	// Harness that never integrated power: the RAPL counter moved, the
	// integral did not.
	ctx := &Context{Sim: s, StartEnergyJ: 0, PowerIntegralJ: 0}
	wantViolation(t, inv.Check(ctx), "J !=")
	// A consistent view passes.
	ctx.StartEnergyJ = s.Power.EnergyJ(0)
	if err := inv.Check(ctx); err != nil {
		t.Fatalf("consistent view flagged: %v", err)
	}
}

func TestCoreTypeIsolationDetectsCrossCount(t *testing.T) {
	s := bootFor(t, "homogeneous")
	ws, err := openWide(s)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.close(s)
	s.Spawn(workload.NewInstructionLoop("loop", 1e6, 100), hw.NewCPUSet(0))
	s.RunFor(0.05)
	inv := &coreTypeIsolation{}
	// Misfile cpu0's own (counting) instruction event as a foreign probe:
	// the invariant must reject any nonzero "foreign" count.
	ctx := &Context{Sim: s, Foreign: ws.events[:1]}
	wantViolation(t, inv.Check(ctx), "counted")
}

func TestSchedAffinityDetectsEscape(t *testing.T) {
	s := bootFor(t, "homogeneous")
	p := s.Spawn(workload.NewSpin("spin", 10), hw.NewCPUSet(0))
	s.RunFor(0.01)
	if p.CPU() != 0 {
		t.Fatalf("spin on cpu%d, want cpu0", p.CPU())
	}
	// Shrink the mask out from under the running process; until the next
	// scheduler pass it is on a CPU outside its affinity.
	if err := s.Sched.SetAffinity(p.PID, hw.NewCPUSet(1)); err != nil {
		t.Fatal(err)
	}
	inv := schedAffinity{}
	ctx := &Context{Sim: s, Procs: []*sched.Process{p}}
	wantViolation(t, inv.Check(ctx), "outside affinity")
	// The scheduler's next pass repairs the placement.
	s.RunFor(0.01)
	if err := inv.Check(ctx); err != nil {
		t.Fatalf("post-enforcement state flagged: %v", err)
	}
}

func TestFreqEnvelopeDetectsCapBreach(t *testing.T) {
	s := bootFor(t, "homogeneous")
	fe := &freqEnvelope{}
	ctx := &Context{Sim: s}
	if err := fe.Check(ctx); err != nil {
		t.Fatalf("boot state flagged: %v", err)
	}
	// A cap far below the running frequency: the first check after the
	// drop is forgiven (one-tick control-loop lag), the next is not.
	s.Governor.SetUserCapMHz(hw.Performance, 100)
	if err := fe.Check(ctx); err != nil {
		t.Fatalf("lag tick flagged: %v", err)
	}
	wantViolation(t, fe.Check(ctx), "above the")
}

func TestThermalBoundsDetectsExcursion(t *testing.T) {
	s := bootFor(t, "homogeneous")
	inv := thermalBounds{}
	ctx := &Context{Sim: s}
	if err := inv.Check(ctx); err != nil {
		t.Fatalf("boot state flagged: %v", err)
	}
	saved := s.HW.Thermal
	s.HW.Thermal.TjMaxC = s.Thermal.TempC() - 5
	wantViolation(t, inv.Check(ctx), "above TjMax")
	s.HW.Thermal = saved
	s.HW.Thermal.AmbientC = s.Thermal.TempC() + 5
	wantViolation(t, inv.Check(ctx), "below ambient")
}

func TestPowerSanityDetectsImpossiblePower(t *testing.T) {
	s := bootFor(t, "homogeneous")
	s.RunFor(0.01)
	inv := &powerSanity{}
	ctx := &Context{Sim: s}
	if err := inv.Check(ctx); err != nil {
		t.Fatalf("idle machine flagged: %v", err)
	}
	// Raise the claimed uncore floor above what the model produces.
	s.HW.Power.UncoreWatts = 1e6
	wantViolation(t, inv.Check(ctx), "uncore floor")
}

func TestStandardReturnsFreshInstances(t *testing.T) {
	a, b := Standard(), Standard()
	if len(a) < 6 {
		t.Fatalf("Standard() returned %d invariants, want at least 6", len(a))
	}
	// The stateful invariants must not share state across calls (empty
	// structs may legitimately alias, so only check the ones that hold
	// state).
	var ca, cb *counterMonotonic
	var ia, ib *coreTypeIsolation
	for i := range a {
		if m, ok := a[i].(*counterMonotonic); ok {
			ca = m
		}
		if m, ok := b[i].(*counterMonotonic); ok {
			cb = m
		}
		if m, ok := a[i].(*coreTypeIsolation); ok {
			ia = m
		}
		if m, ok := b[i].(*coreTypeIsolation); ok {
			ib = m
		}
	}
	if ca == nil || cb == nil || ca == cb {
		t.Fatalf("Standard() must return fresh counter-monotonic instances (got %p, %p)", ca, cb)
	}
	if ia == nil || ib == nil || ia == ib {
		t.Fatalf("Standard() must return fresh core-type-isolation instances (got %p, %p)", ia, ib)
	}
	names := map[string]bool{}
	for _, inv := range a {
		if names[inv.Name()] {
			t.Fatalf("duplicate invariant name %q", inv.Name())
		}
		names[inv.Name()] = true
	}
}
