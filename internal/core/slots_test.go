package core

import (
	"reflect"
	"testing"

	"hetpapi/internal/hw"
	"hetpapi/internal/workload"
)

// TestReadValuesIntoAllocatesNothing: the per-tick probe read of a
// running two-PMU set (one perf group per core type) fills caller scratch
// without allocating; ReadValues pays exactly for the slice it returns.
func TestReadValuesIntoAllocatesNothing(t *testing.T) {
	s := newSim(hw.RaptorLake())
	l := initLib(t, s, Options{})
	p := s.Spawn(workload.NewInstructionLoop("probe", 1e9, 2000), hw.AllCPUs(s.HW))
	es := l.CreateEventSet()
	if err := es.Attach(p.PID); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{
		"adl_glc::INST_RETIRED:ANY", "adl_glc::CPU_CLK_UNHALTED:THREAD",
		"adl_grt::INST_RETIRED:ANY", "adl_grt::CPU_CLK_UNHALTED:CORE",
	} {
		if err := es.AddNamed(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := es.Start(); err != nil {
		t.Fatal(err)
	}
	if es.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want one per core PMU", es.NumGroups())
	}
	s.RunFor(0.05)
	dst, err := es.ReadValuesInto(nil)
	if err != nil || len(dst) != 4 {
		t.Fatalf("ReadValuesInto = %v, %v", dst, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.Step()
		got, err := es.ReadValuesInto(dst)
		if err != nil || len(got) != 4 || &got[0] != &dst[0] {
			t.Fatalf("ReadValuesInto did not reuse dst: %v, %v", got, err)
		}
	}); n != 0 {
		t.Errorf("ReadValuesInto allocates %.1f times per read, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := es.ReadValues(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("ReadValues allocates %.1f times per read, want 1", n)
	}
}

// TestSlotStateAcrossHotplugRebuild drives one set through a migration
// that freezes a per-task native, two hotplug rebuilds of its RAPL
// native, a Reset and a re-online. The slot carry and stale marks follow
// the ladder's rules, and every value and the DegradationReport are
// exactly those the fd-keyed degradation maps that the slots replaced
// produced for this run.
func TestSlotStateAcrossHotplugRebuild(t *testing.T) {
	s := newSim(hw.RaptorLake())
	l := initLib(t, s, Options{})
	p := s.Spawn(workload.NewInstructionLoop("hotplugged", 1e9, 2000), hw.AllCPUs(s.HW))
	es := l.CreateEventSet()
	if err := es.Attach(p.PID); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"adl_glc::INST_RETIRED:ANY", "adl_grt::INST_RETIRED:ANY", "rapl::ENERGY_PKG"} {
		if err := es.AddNamed(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := es.Start(); err != nil {
		t.Fatal(err)
	}
	// want is one read: each value's Final, and which are Stale and
	// Degraded.
	type want struct {
		final         [3]uint64
		stale, degrad [3]bool
	}
	check := func(step string, got []Value, w want) {
		t.Helper()
		if len(got) != 3 {
			t.Fatalf("%s: %d values, want 3", step, len(got))
		}
		for i, v := range got {
			if v.Final != w.final[i] || v.Stale != w.stale[i] || v.Degraded != w.degrad[i] {
				t.Errorf("%s: value %d = {Final %#x Stale %v Degraded %v}, want {%#x %v %v}",
					step, i, v.Final, v.Stale, v.Degraded, w.final[i], w.stale[i], w.degrad[i])
			}
		}
	}
	read := func(step string, w want) {
		t.Helper()
		v, err := es.ReadValues()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		check(step, v, w)
	}
	glc, rapl := &es.slots[es.entries[0].first], &es.slots[es.entries[2].first]
	all := [3]bool{true, true, true}
	glcOnly := [3]bool{true}

	s.RunFor(0.3)
	read("running", want{final: [3]uint64{0x82976580, 0x3244ce10, 0x22bc6}})

	// Off the P-cores, the adl_glc native freezes while enabled.
	if err := s.Sched.SetAffinity(p.PID, hw.NewCPUSet(s.HW.CPUsOfClass(hw.Efficiency)...)); err != nil {
		t.Fatal(err)
	}
	s.RunFor(0.2)
	read("migrated", want{final: [3]uint64{0x82976580, 0x855b8e90, 0x36418}, stale: glcOnly, degrad: glcOnly})
	if !glc.stale {
		t.Fatal("frozen adl_glc slot not marked stale")
	}

	// RAPL lives on cpu0: the rebuild moves the slot to a new fd and
	// carries the last observed count.
	oldFD := rapl.fd
	s.SetCPUOnline(0, false)
	s.RunFor(0.3)
	rebuilt := want{final: [3]uint64{0x82976580, 0x101fdaf50, 0x36418}, stale: glcOnly, degrad: all}
	read("rebuilt", rebuilt)
	if rapl.fd == oldFD || rapl.carry != 0x36418 || rapl.lastValue != 0 || !rapl.seen || rapl.stale {
		t.Fatalf("rebuilt RAPL slot = %+v (old fd %d), want a new fd carrying %#x", *rapl, oldFD, 0x36418)
	}
	read("reread", rebuilt) // the stale mark is sticky
	s.RunFor(0.1)
	read("counting again", want{final: [3]uint64{0x82976580, 0x12b890f90, 0x40040}, stale: glcOnly, degrad: all})

	// The second rebuild adds the new fd's count to the first carry.
	s.SetCPUOnline(0, true)
	s.SetCPUOnline(1, false)
	s.RunFor(0.1)
	read("rebuilt twice", want{final: [3]uint64{0x82976580, 0x155146fd0, 0x40040}, stale: glcOnly, degrad: all})
	if rapl.carry != 0x40040 {
		t.Fatalf("carry after two rebuilds = %#x, want %#x", uint64(rapl.carry), 0x40040)
	}

	// Reset zeroes the counters, carries and count snapshots, not the
	// time snapshots or the stale marks.
	if err := es.Reset(); err != nil {
		t.Fatal(err)
	}
	for i, sl := range es.slots {
		if sl.carry != 0 || sl.lastValue != 0 || !sl.seen {
			t.Fatalf("slot %d after Reset = %+v", i, sl)
		}
	}
	if !glc.stale {
		t.Fatal("Reset cleared a stale mark")
	}
	s.RunFor(0.1)
	read("reset", want{final: [3]uint64{0, 0x298b6040, 0x9c28}, stale: glcOnly, degrad: all})

	s.SetCPUOnline(1, true)
	if err := s.Sched.SetAffinity(p.PID, hw.AllCPUs(s.HW)); err != nil {
		t.Fatal(err)
	}
	s.RunFor(0.2)
	stopped, err := es.StopValues()
	if err != nil {
		t.Fatal(err)
	}
	final := [3]uint64{0x4f85aa80, 0x4f599170, 0x209a3}
	check("stopped", stopped, want{final: final, degrad: all})
	read("after stop", want{final: final, stale: all, degrad: all})

	wantReport := DegradationReport{
		HotplugRebuilds: 2, StaleReads: 7, DegradedReads: 8,
		Events: []DegradationEvent{
			{AtSec: 0.8000000000000006, Kind: "hotplug-rebuild", Detail: "group fd 5 died with its CPU: rebuilt on cpu1 as fd 6"},
			{AtSec: 1.0000000000000007, Kind: "hotplug-rebuild", Detail: "group fd 6 died with its CPU: rebuilt on cpu0 as fd 7"},
			{AtSec: 1.2999999999999676, Kind: "stale-serve", Detail: "read of stopped eventset"},
		},
	}
	if got := es.Degradations(); !reflect.DeepEqual(got, wantReport) {
		t.Fatalf("DegradationReport = %+v\nwant %+v", got, wantReport)
	}
	if err := es.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if s.Kernel.NumOpen() != 0 {
		t.Fatalf("%d fds leaked", s.Kernel.NumOpen())
	}
}
