package power

import (
	"math"
	"testing"
	"testing/quick"

	"hetpapi/internal/hw"
)

func TestEnergyIntegration(t *testing.T) {
	m := New(hw.RaptorLake().Power)
	// 10 seconds at 55 W cores -> 65 W package.
	for i := 0; i < 1000; i++ {
		m.Step(55, 0.01)
	}
	if got := m.EnergyJ(DomainPkg); math.Abs(got-650) > 1e-6 {
		t.Fatalf("pkg energy = %g J, want 650", got)
	}
	if got := m.EnergyJ(DomainCores); math.Abs(got-550) > 1e-6 {
		t.Fatalf("cores energy = %g J, want 550", got)
	}
	if m.EnergyJ(DomainRAM) <= 0 || m.EnergyJ(DomainPsys) <= m.EnergyJ(DomainPkg) {
		t.Fatal("RAM/PSYS domains must accumulate (psys > pkg)")
	}
}

func TestRAPLCountUnits(t *testing.T) {
	spec := hw.RaptorLake().Power
	m := New(spec)
	m.Step(55, 1) // 65 J package
	want := uint64(65 / spec.EnergyUnitJ)
	got := m.RAPLCount(DomainPkg)
	if got < want-1 || got > want+1 {
		t.Fatalf("RAPLCount = %d, want ~%d", got, want)
	}
}

func TestNoRAPLOnOrangePi(t *testing.T) {
	m := New(hw.OrangePi800().Power)
	m.Step(5, 10)
	if m.RAPLCount(DomainPkg) != 0 {
		t.Fatal("machine without RAPL must read 0 counts")
	}
	if !math.IsInf(m.CapW(), 1) {
		t.Fatal("machine without power limits must report an infinite cap")
	}
	// Energy still integrates (for the wall meter view).
	if m.EnergyJ(DomainPkg) <= 0 {
		t.Fatal("energy must still accumulate")
	}
}

func TestTurboBudgetDrainsAndCapDrops(t *testing.T) {
	spec := hw.RaptorLake().Power
	m := New(spec)
	if m.CapW() != spec.PL2Watts {
		t.Fatalf("initial cap = %g, want PL2 %g", m.CapW(), spec.PL2Watts)
	}
	// Run hot (180 W package) until the budget drains.
	var drainedAt float64 = -1
	for sec := 0.0; sec < 120; sec += 0.01 {
		m.Step(170, 0.01)
		if m.CapW() == spec.PL1Watts {
			drainedAt = sec
			break
		}
	}
	if drainedAt < 0 {
		t.Fatal("turbo budget never drained at 180 W")
	}
	// Drain time should be budget / (P - PL1) = 1600/115 ~ 14 s.
	want := spec.PL2BudgetJ / (180 - spec.PL1Watts)
	if math.Abs(drainedAt-want) > 2 {
		t.Fatalf("budget drained after %.1f s, want ~%.1f s", drainedAt, want)
	}
}

func TestTurboBudgetReplenishes(t *testing.T) {
	spec := hw.RaptorLake().Power
	m := New(spec)
	for i := 0; i < 3000; i++ {
		m.Step(170, 0.01)
	}
	if m.CapW() != spec.PL1Watts {
		t.Fatal("expected cap at PL1 after the burn")
	}
	// Idle for a while: budget must refill and the cap return to PL2.
	for i := 0; i < 20000; i++ {
		m.Step(2, 0.01)
	}
	if m.CapW() != spec.PL2Watts {
		t.Fatalf("cap = %g after idle, want PL2 %g (budget %g)", m.CapW(), spec.PL2Watts, m.TurboBudgetJ())
	}
	if m.TurboBudgetJ() != spec.PL2BudgetJ {
		t.Fatalf("budget %g not clamped to max %g", m.TurboBudgetJ(), spec.PL2BudgetJ)
	}
}

// TestSetLimitsRaisedPL1RestoresTurbo: with the budget burnt, raising PL1
// above the draw (a power-cap fault healing) refills the budget on the
// next step, and the cap comes back at the new PL2.
func TestSetLimitsRaisedPL1RestoresTurbo(t *testing.T) {
	m := New(hw.PowerSpec{PL1Watts: 65, PL2Watts: 150, PL2BudgetJ: 100, PL1TauSec: 1})
	m.Step(150, 2) // drains 85 W * 2 s = 170 J, more than the 100 J budget
	if m.TurboBudgetJ() != 0 || m.CapW() != 65 {
		t.Fatalf("after overdraw: budget %g J, cap %g W; want 0 J at PL1 65 W", m.TurboBudgetJ(), m.CapW())
	}
	m.SetLimits(200, 250)
	m.Step(150, 0.001)
	if m.CapW() != 250 {
		t.Fatalf("cap = %g W after raising PL1, want the new PL2 250 W", m.CapW())
	}
}

func TestRunningAverageLagsBehind(t *testing.T) {
	spec := hw.RaptorLake().Power
	m := New(spec)
	m.Step(170, 0.01)
	if m.AvgPkgPowerW() >= m.PkgPowerW() {
		t.Fatal("EWMA must lag a step increase")
	}
	for i := 0; i < 100000; i++ {
		m.Step(55, 0.01)
	}
	if math.Abs(m.AvgPkgPowerW()-65) > 1 {
		t.Fatalf("EWMA = %g after long constant run, want ~65", m.AvgPkgPowerW())
	}
}

func TestWallPower(t *testing.T) {
	spec := hw.OrangePi800().Power
	m := New(spec)
	m.Step(4.6, 1) // 5.4 W package
	want := 5.4/spec.ACEfficiency + spec.ACLossWatts
	if got := m.WallPowerW(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("wall power = %g, want %g", got, want)
	}
}

func TestZeroDtNoop(t *testing.T) {
	m := New(hw.RaptorLake().Power)
	m.Step(100, 0)
	if m.EnergyJ(DomainPkg) != 0 || m.PkgPowerW() != 0 {
		t.Fatal("zero dt must not account energy")
	}
}

// Property: energy equals the integral of power — summing arbitrary
// (power, dt) steps accumulates exactly sum(p_i * dt_i) for the cores
// domain plus uncore for the package domain.
func TestEnergyIsIntegralOfPower(t *testing.T) {
	spec := hw.RaptorLake().Power
	f := func(steps []struct {
		P  uint8
		Dt uint8
	}) bool {
		m := New(spec)
		var wantCores, wantPkg, totalT float64
		for _, s := range steps {
			p := float64(s.P)
			dt := float64(s.Dt) / 100
			m.Step(p, dt)
			if dt > 0 {
				wantCores += p * dt
				wantPkg += (p + spec.UncoreWatts) * dt
				totalT += dt
			}
		}
		tol := 1e-9 * (1 + wantPkg)
		return math.Abs(m.EnergyJ(DomainCores)-wantCores) < tol &&
			math.Abs(m.EnergyJ(DomainPkg)-wantPkg) < tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the turbo budget stays within [0, PL2BudgetJ] no matter the
// power trajectory.
func TestTurboBudgetBounds(t *testing.T) {
	spec := hw.RaptorLake().Power
	f := func(powers []uint8) bool {
		m := New(spec)
		for _, p := range powers {
			m.Step(float64(p)*2, 0.05)
			if b := m.TurboBudgetJ(); b < 0 || b > spec.PL2BudgetJ {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
