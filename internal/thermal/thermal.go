// Package thermal implements the lumped RC thermal model behind the
// simulated machines' package thermal zones.
//
// The model is the standard first-order network: a heat capacitance C
// (J/degC) warmed by the package power and cooled through a resistance R
// (degC/W) to ambient:
//
//	C * dT/dt = P - (T - Tambient) / R
//
// A desktop tower (Raptor Lake preset) has a large C and tiny R, so at its
// 65 W sustained power limit it settles far below TjMax — matching the
// paper's observation that neither HPL variant is thermally throttled
// there. The passively cooled OrangePi has a small C and large R, so its
// big cores cross the 85 degC passive trip within seconds of starting HPL.
package thermal

import (
	"fmt"

	"hetpapi/internal/hw"
)

// Model integrates the package temperature of one machine.
type Model struct {
	spec  hw.ThermalSpec
	tempC float64
}

// New returns a model initialized at ambient temperature.
func New(spec hw.ThermalSpec) *Model {
	return &Model{spec: spec, tempC: spec.AmbientC}
}

// Spec returns the thermal constants the model runs on.
func (m *Model) Spec() hw.ThermalSpec { return m.spec }

// TempC returns the current zone temperature in degrees Celsius.
func (m *Model) TempC() float64 { return m.tempC }

// TempMilliC returns the temperature in millidegrees, the unit
// /sys/class/thermal exposes.
func (m *Model) TempMilliC() int { return int(m.tempC * 1000) }

// SetTempC forces the zone temperature (used to start runs from a settled
// state, mirroring the paper's wait-for-35-degC protocol).
func (m *Model) SetTempC(t float64) { m.tempC = t }

// AddHeatJ dumps an instantaneous amount of heat into the zone's
// capacitance, clamped to the [ambient, TjMax] band the model operates in.
// Scenario harnesses use it to model external thermal events (a blocked
// fan, sun on the enclosure) and drive the passive-trip machinery without
// waiting for the workload to warm the package.
func (m *Model) AddHeatJ(j float64) {
	m.tempC += j / m.spec.CapacitanceJPerC
	if m.tempC < m.spec.AmbientC {
		m.tempC = m.spec.AmbientC
	}
	if m.tempC > m.spec.TjMaxC {
		m.tempC = m.spec.TjMaxC
	}
}

// Step advances the model by dtSec seconds with the given package power.
// The integration is split into sub-steps when dt is large relative to the
// RC time constant so the explicit Euler update stays stable.
func (m *Model) Step(powerW, dtSec float64) {
	if dtSec <= 0 {
		return
	}
	tau := m.spec.ResistanceCPerW * m.spec.CapacitanceJPerC
	steps := 1
	if dtSec > tau/4 {
		steps = int(dtSec/(tau/4)) + 1
	}
	h := dtSec / float64(steps)
	for i := 0; i < steps; i++ {
		dT := (powerW - (m.tempC-m.spec.AmbientC)/m.spec.ResistanceCPerW) / m.spec.CapacitanceJPerC
		m.tempC += dT * h
	}
	if m.tempC < m.spec.AmbientC {
		m.tempC = m.spec.AmbientC
	}
	if m.tempC > m.spec.TjMaxC {
		// TjMax is a hard clamp: real silicon would thermally shut down or
		// duty-cycle; the governor should keep us away from here.
		m.tempC = m.spec.TjMaxC
	}
}

// SteadyStateC returns the equilibrium temperature for a constant power.
func (m *Model) SteadyStateC(powerW float64) float64 {
	return m.spec.AmbientC + powerW*m.spec.ResistanceCPerW
}

// PowerForTempC returns the power that holds the zone at the given steady
// temperature — the thermal budget available at the passive trip point.
func (m *Model) PowerForTempC(tempC float64) float64 {
	return (tempC - m.spec.AmbientC) / m.spec.ResistanceCPerW
}

// Throttling reports whether the zone is at or above its passive trip
// point. Machines without a passive trip (PassiveTripC == 0) never report
// throttling.
func (m *Model) Throttling() bool {
	return m.spec.PassiveTripC > 0 && m.tempC >= m.spec.PassiveTripC
}

// SettleTo runs the model with idle power until the temperature drops to
// target (or ambient, whichever is higher), returning the simulated seconds
// it took. This mirrors the paper's data-collection protocol of waiting for
// the package to cool to 35 degC between runs.
func (m *Model) SettleTo(target, idlePowerW float64) float64 {
	floor := m.SteadyStateC(idlePowerW)
	if target < floor {
		target = floor
	}
	var elapsed float64
	const h = 0.1
	for m.tempC > target+1e-9 {
		m.Step(idlePowerW, h)
		elapsed += h
		if elapsed > 24*3600 {
			break // give up after a simulated day; caller asked for the impossible
		}
	}
	return elapsed
}

// String describes the zone like /sys/class/thermal would.
func (m *Model) String() string {
	return fmt.Sprintf("thermal_zone%d(%s)=%dmC", m.spec.ZoneIndex, m.spec.ZoneName, m.TempMilliC())
}
