// Package power implements the package power model: per-domain RAPL energy
// accumulation, the PL1/PL2 running-average power limit machinery, and the
// wall-power view a WattsUpPro meter would report.
//
// The PL2 behaviour follows the RAPL "turbo budget" abstraction: the
// package may draw up to PL2 while an energy budget above PL1 lasts; the
// budget drains at (P - PL1) and refills at (PL1 - P), so a run starts with
// a short high-power spike and then settles onto the PL1 plateau — the
// shape of Figure 2 in the paper.
package power

import (
	"math"

	"hetpapi/internal/hw"
)

// Domain identifies a RAPL energy domain.
type Domain int

const (
	// DomainPkg is the whole processor package.
	DomainPkg Domain = iota
	// DomainCores is the core power plane (PP0).
	DomainCores
	// DomainRAM is the DRAM plane.
	DomainRAM
	// DomainPsys is the whole-platform plane.
	DomainPsys
	numDomains
)

// Model tracks energy and power limits for one machine.
type Model struct {
	spec hw.PowerSpec

	energyJ [numDomains]float64
	// lastPkgW is the package power of the most recent Step.
	lastPkgW float64
	// lastCoresW is the cores-only power of the most recent Step.
	lastCoresW float64
	// avgPkgW is the running average RAPL compares against PL1.
	avgPkgW float64
	// pl2Budget is the remaining above-PL1 energy budget in joules.
	pl2Budget float64
}

// New returns a power model with a full PL2 budget and idle averages.
func New(spec hw.PowerSpec) *Model {
	return &Model{spec: spec, pl2Budget: spec.PL2BudgetJ}
}

// Spec returns the constants the model runs on.
func (m *Model) Spec() hw.PowerSpec { return m.spec }

// SetLimits changes the PL1/PL2 power limits at runtime, the operation a
// write to the RAPL constraint_*_power_limit_uw sysfs files performs.
// Lowering PL1 is the "power cap" fault scenario harnesses inject. The
// remaining turbo budget is clamped into the (unchanged) budget size so a
// cap change never manufactures turbo headroom.
func (m *Model) SetLimits(pl1W, pl2W float64) {
	m.spec.PL1Watts = pl1W
	m.spec.PL2Watts = pl2W
	if m.pl2Budget > m.spec.PL2BudgetJ {
		m.pl2Budget = m.spec.PL2BudgetJ
	}
}

// Step accounts coresW watts of core power plus the constant uncore power
// over dtSec seconds.
func (m *Model) Step(coresW, dtSec float64) {
	if dtSec <= 0 {
		return
	}
	pkgW := coresW + m.spec.UncoreWatts
	ramW := 1.5 + 0.04*coresW // DRAM background plus bandwidth-proportional draw
	m.lastPkgW = pkgW
	m.lastCoresW = coresW

	m.energyJ[DomainPkg] += pkgW * dtSec
	m.energyJ[DomainCores] += coresW * dtSec
	m.energyJ[DomainRAM] += ramW * dtSec
	m.energyJ[DomainPsys] += (pkgW + ramW + m.spec.ACLossWatts/2) * dtSec

	if m.spec.PL1TauSec > 0 {
		alpha := 1 - math.Exp(-dtSec/m.spec.PL1TauSec)
		m.avgPkgW += alpha * (pkgW - m.avgPkgW)
	} else {
		m.avgPkgW = pkgW
	}

	if m.spec.PL1Watts > 0 {
		m.pl2Budget -= (pkgW - m.spec.PL1Watts) * dtSec
		if m.pl2Budget > m.spec.PL2BudgetJ {
			m.pl2Budget = m.spec.PL2BudgetJ
		}
		if m.pl2Budget < 0 {
			m.pl2Budget = 0
		}
	}
}

// PkgPowerW returns the instantaneous package power of the last step.
func (m *Model) PkgPowerW() float64 { return m.lastPkgW }

// CoresPowerW returns the instantaneous core power of the last step.
func (m *Model) CoresPowerW() float64 { return m.lastCoresW }

// AvgPkgPowerW returns the PL1 running-average package power.
func (m *Model) AvgPkgPowerW() float64 { return m.avgPkgW }

// CapW returns the power limit currently in force: PL2 while turbo budget
// remains, PL1 afterwards. Machines without RAPL limits return +Inf.
func (m *Model) CapW() float64 {
	if m.spec.PL1Watts <= 0 {
		return math.Inf(1)
	}
	if m.pl2Budget > 0 {
		return m.spec.PL2Watts
	}
	return m.spec.PL1Watts
}

// TurboBudgetJ returns the remaining above-PL1 energy budget.
func (m *Model) TurboBudgetJ() float64 { return m.pl2Budget }

// EnergyJ returns the accumulated energy of a domain in joules.
func (m *Model) EnergyJ(d Domain) float64 { return m.energyJ[d] }

// RAPLCount returns the energy of a domain in RAPL energy units, the raw
// value a perf_event RAPL counter or the energy_uj sysfs file derives from.
// Machines without RAPL always return 0.
func (m *Model) RAPLCount(d Domain) uint64 {
	if !m.spec.HasRAPL || m.spec.EnergyUnitJ <= 0 {
		return 0
	}
	return uint64(m.energyJ[d] / m.spec.EnergyUnitJ)
}

// WallPowerW returns the AC-side power a wall meter (the paper's
// WattsUpPro) would read for the last step.
func (m *Model) WallPowerW() float64 {
	eff := m.spec.ACEfficiency
	if eff <= 0 {
		eff = 1
	}
	return m.lastPkgW/eff + m.spec.ACLossWatts
}
