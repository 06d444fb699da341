package perfevent

import (
	"errors"
	"math"
	"testing"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
	"hetpapi/internal/power"
)

func TestEventAccessors(t *testing.T) {
	m := hw.RaptorLake()
	k := NewKernel(m)
	attr := attrFor(t, m, "adl_glc", "INST_RETIRED", "ANY")
	fd, err := k.Open(attr, 100, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := k.lookup(fd)
	if err != nil {
		t.Fatal(err)
	}
	if e.FD() != fd {
		t.Errorf("FD = %d, want %d", e.FD(), fd)
	}
	if e.Kind() != events.KindInstructions {
		t.Errorf("Kind = %v", e.Kind())
	}
	if e.PMUType() != 8 {
		t.Errorf("PMUType = %d", e.PMUType())
	}
	if e.Name() != "INST_RETIRED:ANY" {
		t.Errorf("Name = %q", e.Name())
	}
	if k.Machine() != m {
		t.Error("Machine accessor broken")
	}
	if k.Now() != 0 {
		t.Errorf("Now = %g before Advance", k.Now())
	}
	k.Advance(1.5)
	if k.Now() != 1.5 {
		t.Errorf("Now = %g", k.Now())
	}
	// Advancing backwards clamps the delta, not the clock.
	k.Advance(1.0)
	if k.Now() != 1.0 {
		t.Errorf("Now after backward advance = %g", k.Now())
	}
}

func TestReadUserDirect(t *testing.T) {
	m := hw.RaptorLake()
	k := NewKernel(m)
	k.AttachPower(power.New(m.Power))
	attr := attrFor(t, m, "adl_glc", "INST_RETIRED", "ANY")
	fd, _ := k.Open(attr, 100, -1, -1)
	k.TaskExec(100, 0, 0.001, events.Stats{Instructions: 123})
	c, err := k.ReadUser(fd)
	if err != nil || c.Value != 123 {
		t.Fatalf("ReadUser = %+v, %v", c, err)
	}
	// rdpmc requires per-task hardware events.
	wide, _ := k.Open(attr, -1, 0, -1)
	if _, err := k.ReadUser(wide); !errors.Is(err, ErrInvalid) {
		t.Errorf("rdpmc on cpu-wide event: %v", err)
	}
	rapl, _ := k.Open(Attr{Type: m.Power.RAPLPerfType, Config: events.Encode(0x02, 0)}, -1, 0, -1)
	if _, err := k.ReadUser(rapl); !errors.Is(err, ErrInvalid) {
		t.Errorf("rdpmc on rapl event: %v", err)
	}
	if _, err := k.ReadUser(12345); !errors.Is(err, ErrBadFD) {
		t.Errorf("rdpmc on bad fd: %v", err)
	}
}

func TestSchedHooksDirect(t *testing.T) {
	m := hw.RaptorLake()
	k := NewKernel(m)
	sw := events.LookupPMU("perf")
	ctxDef := sw.Lookup("CONTEXT_SWITCHES")
	migDef := sw.Lookup("CPU_MIGRATIONS")
	ctxFD, err := k.Open(Attr{Type: PerfTypeSoftware, Config: events.Encode(ctxDef.Code, 0)}, 100, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	migFD, _ := k.Open(Attr{Type: PerfTypeSoftware, Config: events.Encode(migDef.Code, 0)}, 100, -1, -1)

	k.SchedIn(100, 0, 0.0)   // first placement: no migration
	k.SchedOut(100, 0, 0.01) // one switch
	k.SchedIn(100, 16, 0.01) // migration 0 -> 16
	k.SchedOut(100, 16, 0.02)
	k.SchedIn(100, 16, 0.02) // same cpu: no migration
	k.SchedIn(999, 3, 0.03)  // other pid: ignored

	ctx, _ := k.Read(ctxFD)
	mig, _ := k.Read(migFD)
	if ctx.Value != 2 {
		t.Errorf("context switches = %d, want 2", ctx.Value)
	}
	if mig.Value != 1 {
		t.Errorf("migrations = %d, want 1", mig.Value)
	}
	// Software events cannot be cpu-wide or sampled here.
	if _, err := k.Open(Attr{Type: PerfTypeSoftware, Config: events.Encode(ctxDef.Code, 0)}, -1, 0, -1); !errors.Is(err, ErrInvalid) {
		t.Errorf("cpu-wide software event: %v", err)
	}
	if _, err := k.Open(Attr{Type: PerfTypeSoftware, Config: events.Encode(ctxDef.Code, 0), SamplePeriod: 10}, 100, -1, -1); !errors.Is(err, ErrInvalid) {
		t.Errorf("sampled software event: %v", err)
	}
	if _, err := k.Open(Attr{Type: PerfTypeSoftware, Config: 0x99}, 100, -1, -1); !errors.Is(err, ErrNotSupported) {
		t.Errorf("unknown software id: %v", err)
	}
}

func TestSoftwareInHardwareGroup(t *testing.T) {
	// Real perf allows software siblings inside hardware groups, and they
	// do not consume hardware counters.
	m := hw.RaptorLake()
	k := NewKernel(m)
	hwAttr := attrFor(t, m, "adl_grt", "INST_RETIRED", "ANY")
	leader, err := k.Open(hwAttr, 100, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	sw := events.LookupPMU("perf").Lookup("TASK_CLOCK")
	if _, err := k.Open(Attr{Type: PerfTypeSoftware, Config: events.Encode(sw.Code, 0)}, 100, -1, leader); err != nil {
		t.Fatalf("software sibling in hardware group: %v", err)
	}
	// Fill the E-core group to capacity with hardware events: 9 total
	// hardware members still fit because the software sibling is free.
	for i := 0; i < 8; i++ {
		if _, err := k.Open(hwAttr, 100, -1, leader); err != nil {
			t.Fatalf("hardware sibling %d: %v", i, err)
		}
	}
	if _, err := k.Open(hwAttr, 100, -1, leader); !errors.Is(err, ErrInvalid) {
		t.Fatalf("10th hardware member must overflow the 9 counters: %v", err)
	}
	counts, err := k.ReadGroup(leader)
	if err != nil || len(counts) != 10 {
		t.Fatalf("group read: %d counts, %v", len(counts), err)
	}
}

func TestAllEnergyDomains(t *testing.T) {
	m := hw.RaptorLake()
	k := NewKernel(m)
	pwr := power.New(m.Power)
	k.AttachPower(pwr)
	var fds []int
	for _, cfg := range []uint64{0x01, 0x02, 0x03, 0x05} { // cores, pkg, ram, psys
		fd, err := k.Open(Attr{Type: m.Power.RAPLPerfType, Config: events.Encode(cfg, 0)}, -1, 0, -1)
		if err != nil {
			t.Fatalf("domain %#x: %v", cfg, err)
		}
		fds = append(fds, fd)
	}
	pwr.Step(50, 2)
	k.Advance(2)
	unit := m.Power.EnergyUnitJ
	want := []float64{100, 120, 2 * (1.5 + 0.04*50), 0} // cores, pkg, ram; psys > pkg
	for i, fd := range fds[:3] {
		c, _ := k.Read(fd)
		got := float64(c.Value) * unit
		if math.Abs(got-want[i]) > 0.1 {
			t.Errorf("domain %d energy = %g J, want %g", i, got, want[i])
		}
	}
	psys, _ := k.Read(fds[3])
	pkg, _ := k.Read(fds[1])
	if psys.Value <= pkg.Value {
		t.Error("psys must exceed pkg")
	}
}

func TestGenericOnHomogeneous(t *testing.T) {
	m := hw.Homogeneous()
	k := NewKernel(m)
	fd, err := k.Open(Attr{Type: PerfTypeHardware, Config: events.HWCPUCycles}, 100, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	k.TaskExec(100, 0, 0.001, events.Stats{Cycles: 555})
	c, _ := k.Read(fd)
	if c.Value != 555 {
		t.Errorf("generic cycles = %d", c.Value)
	}
}
