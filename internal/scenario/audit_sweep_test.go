package scenario

// The every-tick full sweeps that counter-monotonic and
// core-type-isolation ran before they were gated on Kernel.Seq, and that
// freq-envelope ran before it was gated on sim.Machine.FreqGen, kept
// verbatim (renamed) as the reference the differential suite in
// audit_diff_test.go compares the gated invariants against.

import (
	"errors"
	"fmt"
	"math"

	"hetpapi/internal/hw"
	"hetpapi/internal/perfevent"
	"hetpapi/internal/power"
)

// SweepStandard returns Standard() with counter-monotonic,
// core-type-isolation and freq-envelope replaced by their full-sweep
// references, under the same names and in the same positions.
func SweepStandard() []Invariant {
	invs := Standard()
	for i, inv := range invs {
		switch inv.(type) {
		case *counterMonotonic:
			invs[i] = &sweepCounterMonotonic{}
		case *coreTypeIsolation:
			invs[i] = sweepCoreTypeIsolation{}
		case *freqEnvelope:
			invs[i] = &sweepFreqEnvelope{}
		}
	}
	return invs
}

// sweepCounterMonotonic asserts no perf counter and no RAPL energy domain ever
// decreases — the validation Röhl et al. apply to real hardware events,
// here applied to every simulated one.
type sweepCounterMonotonic struct {
	// wide and foreign hold one baseline per Context.Wide and
	// Context.Foreign slot.
	wide, foreign []sweepBaseline
	prevEnergy    [4]float64
}

// sweepBaseline is a slot's previous reading, tagged with the fd it was
// read from: a slot reopened after hotplug has a new fd and starts a
// fresh baseline.
type sweepBaseline struct {
	fd    int
	value uint64
	ok    bool
}

func (sweepCounterMonotonic) Name() string { return "counter-monotonic" }

func (m *sweepCounterMonotonic) Check(c *Context) error {
	var err error
	if m.wide, err = sweepCheckCounters(c.Sim.Kernel, c.Wide, m.wide); err != nil {
		return err
	}
	if m.foreign, err = sweepCheckCounters(c.Sim.Kernel, c.Foreign, m.foreign); err != nil {
		return err
	}
	for i, d := range []power.Domain{power.DomainPkg, power.DomainCores, power.DomainRAM, power.DomainPsys} {
		e := c.Sim.Power.EnergyJ(d)
		if e < m.prevEnergy[i] {
			return fmt.Errorf("energy domain %d decreased: %.6f -> %.6f J", int(d), m.prevEnergy[i], e)
		}
		m.prevEnergy[i] = e
	}
	return nil
}

func (*sweepCounterMonotonic) Final(*Context) error { return nil }

// sweepCheckCounters reads every live event of set and checks it against its
// slot's baseline in base, which it grows to len(set) and returns.
func sweepCheckCounters(k *perfevent.Kernel, set []WideEvent, base []sweepBaseline) ([]sweepBaseline, error) {
	for len(base) < len(set) {
		base = append(base, sweepBaseline{})
	}
	for i := range set {
		we := &set[i]
		if we.Dead {
			continue
		}
		count, err := k.Read(we.FD)
		if err != nil {
			// A fault plan can offline a CPU without going through the
			// harness's hotplug bookkeeping; a dead descriptor is
			// degradation, not a monotonicity violation.
			if errors.Is(err, perfevent.ErrNoSuchDevice) {
				continue
			}
			return base, fmt.Errorf("reading fd %d (cpu%d %s %v): %v", we.FD, we.CPU, we.TypeName, we.Kind, err)
		}
		b := &base[i]
		if b.ok && b.fd == we.FD && count.Value < b.value {
			return base, fmt.Errorf("cpu%d %s %v counter decreased: %d -> %d",
				we.CPU, we.TypeName, we.Kind, b.value, count.Value)
		}
		*b = sweepBaseline{fd: we.FD, value: count.Value, ok: true}
	}
	return base, nil
}

// sweepCoreTypeIsolation asserts the paper's central hybrid semantic: an event
// programmed on one core type's PMU never counts work executed on another
// core type. The harness opens a foreign-PMU instruction counter on every
// CPU of a hybrid machine; all of them must stay at zero forever.
type sweepCoreTypeIsolation struct{}

func (sweepCoreTypeIsolation) Name() string { return "core-type-isolation" }

func (i sweepCoreTypeIsolation) Check(c *Context) error { return i.verify(c) }
func (i sweepCoreTypeIsolation) Final(c *Context) error { return i.verify(c) }

func (sweepCoreTypeIsolation) verify(c *Context) error {
	for i := range c.Foreign {
		we := &c.Foreign[i]
		if we.Dead {
			continue
		}
		count, err := c.Sim.Kernel.Read(we.FD)
		if err != nil {
			if errors.Is(err, perfevent.ErrNoSuchDevice) {
				continue // hotplugged away by a fault plan
			}
			return fmt.Errorf("reading foreign probe fd %d: %v", we.FD, err)
		}
		if count.Value != 0 {
			return fmt.Errorf("PMU of core type %q counted %d instructions on cpu%d (type %q)",
				we.TypeName, count.Value, we.CPU, c.Sim.HW.TypeOf(we.CPU).Name)
		}
	}
	return nil
}

// sweepFreqEnvelope asserts every CPU's frequency stays inside its core type's
// [min, max] range and at or under the effective (thermal ∧ user) cap.
// Each tick's frequencies are chosen before the governor's end-of-tick
// update, so the comparison allows the looser of the current and
// previous-tick caps (the control loop's inherent one-tick lag), plus
// half an OPP step for quantization rounding.
type sweepFreqEnvelope struct {
	prevCap [2]float64 // by hw.CoreClass; 0 = not yet observed
}

func (sweepFreqEnvelope) Name() string { return "freq-envelope" }

func (fe *sweepFreqEnvelope) Check(c *Context) error {
	m := c.Sim.HW
	var capNow [2]float64
	for _, class := range []hw.CoreClass{hw.Performance, hw.Efficiency} {
		capNow[class] = c.Sim.Governor.CapMHz(class)
		if fe.prevCap[class] == 0 {
			fe.prevCap[class] = capNow[class]
		}
	}
	defer func() { fe.prevCap = capNow }()
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		t := m.TypeOf(cpu)
		f := c.Sim.CurFreqMHz(cpu)
		if f < t.MinFreqMHz-1e-9 || f > t.MaxFreqMHz+1e-9 {
			return fmt.Errorf("cpu%d at %.1f MHz outside [%g, %g]", cpu, f, t.MinFreqMHz, t.MaxFreqMHz)
		}
		cap := math.Max(capNow[t.Class], fe.prevCap[t.Class])
		slack := t.FreqStepMHz/2 + 1e-9
		if cap > 0 && f > cap+slack {
			return fmt.Errorf("cpu%d at %.1f MHz above the %.1f MHz %s-class cap",
				cpu, f, cap, t.Class)
		}
	}
	return nil
}

func (*sweepFreqEnvelope) Final(*Context) error { return nil }
