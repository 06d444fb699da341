// Package dvfs implements the frequency governor of the simulated machines.
//
// Two control loops run at different cadences, mirroring how real systems
// behave:
//
//   - A fast power loop (HWP-style) scales a single performance level for
//     all core types up and down so the package tracks the RAPL cap
//     currently in force (PL2 while the turbo budget lasts, then PL1).
//     Both core types scale proportionally within their own frequency
//     ranges, which is what produces the paper's Figure 1 shape: an
//     initial all-max spike, then P-cores near 2.6-2.9 GHz and E-cores near
//     2.2-2.4 GHz on the 65 W plateau.
//
//   - A slow thermal loop (step_wise-style) only active on machines with a
//     passive trip point (the OrangePi). When the zone crosses the trip it
//     steps the Performance-class (big) cluster down one OPP at a time,
//     reaching for the LITTLE cluster only if that is not enough; when the
//     zone cools it steps frequencies back up. This is the mechanism behind
//     Figure 3's big-core collapse.
package dvfs

import (
	"math"

	"hetpapi/internal/hw"
)

// Config tunes the governor control loops.
type Config struct {
	// PowerPeriodSec is the cadence of the power-cap loop.
	PowerPeriodSec float64
	// ThermalPeriodSec is the cadence of the thermal step_wise loop.
	ThermalPeriodSec float64
	// ThermalHysteresisC is how far below the trip the zone must cool
	// before frequencies step back up.
	ThermalHysteresisC float64
	// UpStep and DownGain control the power loop: the level rises by
	// UpStep when under cap and falls by DownGain * overshoot-ratio when
	// over.
	UpStep   float64
	DownGain float64
}

// DefaultConfig returns the control constants used by the experiments.
func DefaultConfig() Config {
	return Config{
		PowerPeriodSec:     0.01,
		ThermalPeriodSec:   0.5,
		ThermalHysteresisC: 3,
		UpStep:             0.015,
		DownGain:           0.25,
	}
}

// Governor computes per-CPU frequencies from power and thermal feedback.
type Governor struct {
	m   *hw.Machine
	cfg Config

	// level is the shared 0..1 performance level set by the power loop.
	level float64
	// thermCapMHz is the per-class frequency ceiling set by the thermal
	// loop, indexed by hw.CoreClass.
	thermCapMHz [2]float64
	// userCapMHz is the per-class ceiling set from outside the control
	// loops (the scaling_max_freq mechanism); 0 means uncapped.
	userCapMHz [2]float64

	lastPowerT   float64
	lastThermalT float64
	started      bool
}

// New returns a governor at full performance level with thermal caps at the
// per-class maximum frequencies.
func New(m *hw.Machine, cfg Config) *Governor {
	g := &Governor{m: m, cfg: cfg, level: 1}
	g.thermCapMHz[hw.Performance] = maxFreqOfClass(m, hw.Performance)
	g.thermCapMHz[hw.Efficiency] = maxFreqOfClass(m, hw.Efficiency)
	return g
}

func maxFreqOfClass(m *hw.Machine, class hw.CoreClass) float64 {
	var max float64
	for i := range m.Types {
		if m.Types[i].Class == class && m.Types[i].MaxFreqMHz > max {
			max = m.Types[i].MaxFreqMHz
		}
	}
	return max
}

// Level returns the current power-loop performance level in [0, 1].
func (g *Governor) Level() float64 { return g.level }

// ThermalCapMHz returns the thermal frequency ceiling of a core class.
func (g *Governor) ThermalCapMHz(class hw.CoreClass) float64 {
	return g.thermCapMHz[class]
}

// SetUserCapMHz sets an external frequency ceiling for a core class, the
// way writing scaling_max_freq (or a userspace power daemon) caps real
// cpufreq policies. A cap of 0 removes the ceiling.
func (g *Governor) SetUserCapMHz(class hw.CoreClass, mhz float64) {
	g.userCapMHz[class] = mhz
}

// UserCapMHz returns the external frequency ceiling of a core class
// (0 when uncapped).
func (g *Governor) UserCapMHz(class hw.CoreClass) float64 {
	return g.userCapMHz[class]
}

// CapMHz returns the effective frequency ceiling of a core class: the
// tighter of the thermal and user caps.
func (g *Governor) CapMHz(class hw.CoreClass) float64 {
	cap := g.thermCapMHz[class]
	if u := g.userCapMHz[class]; u > 0 && u < cap {
		cap = u
	}
	return cap
}

// Update advances the control loops to simulated time nowSec given the
// instantaneous package power, the cap in force, and the zone temperature.
func (g *Governor) Update(nowSec, pkgPowerW, capW, tempC float64) {
	if !g.started {
		g.started = true
		g.lastPowerT = nowSec
		g.lastThermalT = nowSec
	}
	if nowSec-g.lastPowerT >= g.cfg.PowerPeriodSec {
		g.lastPowerT = nowSec
		g.powerStep(pkgPowerW, capW)
	}
	if nowSec-g.lastThermalT >= g.cfg.ThermalPeriodSec {
		g.lastThermalT = nowSec
		g.thermalStep(tempC)
	}
}

// NextUpdateSec returns the simulated time of the governor's next control
// deadline: the earlier of the power-loop and thermal-loop boundaries.
// Update calls strictly before it are no-ops, so a caller only needs to
// call Update at (or conservatively before) this time. A governor that
// has never been updated is due immediately.
func (g *Governor) NextUpdateSec() float64 {
	if !g.started {
		return 0
	}
	next := g.lastPowerT + g.cfg.PowerPeriodSec
	if t := g.lastThermalT + g.cfg.ThermalPeriodSec; t < next {
		next = t
	}
	return next
}

func (g *Governor) powerStep(pkgPowerW, capW float64) {
	if math.IsInf(capW, 1) || capW <= 0 {
		g.level = 1
		return
	}
	switch {
	case pkgPowerW > capW:
		over := (pkgPowerW - capW) / capW
		g.level -= g.cfg.DownGain*over + 0.005
	case pkgPowerW < capW*0.97:
		g.level += g.cfg.UpStep
	}
	if g.level < 0 {
		g.level = 0
	}
	if g.level > 1 {
		g.level = 1
	}
}

func (g *Governor) thermalStep(tempC float64) {
	spec := g.m.Thermal
	if spec.PassiveTripC <= 0 {
		return
	}
	perfMax := maxFreqOfClass(g.m, hw.Performance)
	effMax := maxFreqOfClass(g.m, hw.Efficiency)
	step := g.opStepMHz()
	switch {
	case tempC >= spec.PassiveTripC:
		// Throttle the big cluster first; touch the LITTLE cluster only
		// once the big cluster is at its floor and the zone is still hot.
		if g.thermCapMHz[hw.Performance] > g.floorMHz(hw.Performance) {
			g.thermCapMHz[hw.Performance] -= step
			if g.thermCapMHz[hw.Performance] < g.floorMHz(hw.Performance) {
				g.thermCapMHz[hw.Performance] = g.floorMHz(hw.Performance)
			}
		} else if tempC >= spec.PassiveTripC+g.cfg.ThermalHysteresisC {
			if g.thermCapMHz[hw.Efficiency] > g.floorMHz(hw.Efficiency) {
				g.thermCapMHz[hw.Efficiency] -= step
				if g.thermCapMHz[hw.Efficiency] < g.floorMHz(hw.Efficiency) {
					g.thermCapMHz[hw.Efficiency] = g.floorMHz(hw.Efficiency)
				}
			}
		}
	case tempC < spec.PassiveTripC-g.cfg.ThermalHysteresisC:
		// Cool again: restore the LITTLE cluster first, then the big one.
		if g.thermCapMHz[hw.Efficiency] < effMax {
			g.thermCapMHz[hw.Efficiency] += step
			if g.thermCapMHz[hw.Efficiency] > effMax {
				g.thermCapMHz[hw.Efficiency] = effMax
			}
		} else if g.thermCapMHz[hw.Performance] < perfMax {
			g.thermCapMHz[hw.Performance] += step
			if g.thermCapMHz[hw.Performance] > perfMax {
				g.thermCapMHz[hw.Performance] = perfMax
			}
		}
	}
}

func (g *Governor) opStepMHz() float64 {
	var max float64
	for i := range g.m.Types {
		if g.m.Types[i].FreqStepMHz > max {
			max = g.m.Types[i].FreqStepMHz
		}
	}
	if max <= 0 {
		max = 100
	}
	return max
}

func (g *Governor) floorMHz(class hw.CoreClass) float64 {
	var floor float64
	for i := range g.m.Types {
		t := &g.m.Types[i]
		if t.Class != class {
			continue
		}
		f := t.MinFreqMHz
		if spec := g.m.Thermal.ThrottleFloorMHz; spec != nil {
			if v, ok := spec[t.Name]; ok && v > f {
				f = v
			}
		}
		if floor == 0 || f < floor {
			floor = f
		}
	}
	return floor
}

// TargetMHz returns the frequency a busy core of the given type runs at
// under the current control state, quantized down to the type's OPP step.
func (g *Governor) TargetMHz(t *hw.CoreType) float64 {
	f := t.MinFreqMHz + g.level*(t.MaxFreqMHz-t.MinFreqMHz)
	if cap := g.CapMHz(t.Class); f > cap {
		f = cap
	}
	if t.FreqStepMHz > 0 {
		f = t.MinFreqMHz + math.Round((f-t.MinFreqMHz)/t.FreqStepMHz)*t.FreqStepMHz
	}
	if f < t.MinFreqMHz {
		f = t.MinFreqMHz
	}
	if f > t.MaxFreqMHz {
		f = t.MaxFreqMHz
	}
	return f
}

// FreqMHz returns the frequency of a logical CPU: the busy-core target when
// active is true, the minimum OPP otherwise (schedutil drops idle cores to
// their lowest frequency).
func (g *Governor) FreqMHz(cpu int, active bool) float64 {
	t := g.m.TypeOf(cpu)
	if !active {
		return t.MinFreqMHz
	}
	return g.TargetMHz(t)
}
