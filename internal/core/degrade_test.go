package core

import (
	"errors"
	"testing"

	"hetpapi/internal/faults"
	"hetpapi/internal/hw"
	"hetpapi/internal/perfevent"
	"hetpapi/internal/workload"
)

// TestStaleReadAfterMigration is the regression test for the silent
// read-after-migration bug: a per-thread count frozen by migration (and
// later by Stop) used to come back as a plain number, indistinguishable
// from a live one. ReadValues/StopValues must flag it.
func TestStaleReadAfterMigration(t *testing.T) {
	s := newSim(hw.RaptorLake())
	l := initLib(t, s, Options{})

	pcores := hw.NewCPUSet(s.HW.CPUsOfClass(hw.Performance)...)
	ecores := hw.NewCPUSet(s.HW.CPUsOfClass(hw.Efficiency)...)
	loop := workload.NewInstructionLoop("migrant", 1e9, 2000)
	p := s.Spawn(loop, pcores)

	es := l.CreateEventSet()
	if err := es.Attach(p.PID); err != nil {
		t.Fatal(err)
	}
	// A P-core-only native: it counts nothing once the thread lives on
	// E-cores, which is exactly the freeze we need flagged.
	if err := es.AddNamed("adl_glc::INST_RETIRED:ANY"); err != nil {
		t.Fatal(err)
	}
	if err := es.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunFor(0.2)

	fresh, err := es.ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if fresh[0].Stale {
		t.Fatalf("value while scheduled on P-cores flagged stale: %+v", fresh[0])
	}
	if fresh[0].Final == 0 {
		t.Fatal("no instructions counted on P-cores")
	}

	// Migrate the thread away from every CPU the native can count on.
	if err := s.Sched.SetAffinity(p.PID, ecores); err != nil {
		t.Fatal(err)
	}
	s.RunFor(0.2)

	stale, err := es.ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if !stale[0].Stale {
		t.Fatalf("frozen post-migration value not flagged stale: %+v", stale[0])
	}
	if !stale[0].Degraded {
		t.Fatalf("stale value not flagged degraded: %+v", stale[0])
	}
	if stale[0].ScaleFactor <= 1 {
		t.Fatalf("ScaleFactor = %g, want > 1 (enabled time kept accruing)", stale[0].ScaleFactor)
	}
	if stale[0].Final < fresh[0].Final {
		t.Fatalf("reads went backwards: %d then %d", fresh[0].Final, stale[0].Final)
	}

	final, err := es.StopValues()
	if err != nil {
		t.Fatal(err)
	}
	if !final[0].Stale {
		t.Fatalf("StopValues of a migrated thread not flagged stale: %+v", final[0])
	}

	// Read-after-stop serves the last values, explicitly stale, rather
	// than silently replaying them or failing.
	after, err := es.ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if !after[0].Stale || after[0].Final != final[0].Final {
		t.Fatalf("read-after-stop = %+v, want stale replay of %d", after[0], final[0].Final)
	}
	if _, err := es.Read(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("legacy Read after stop = %v, want ErrNotRunning", err)
	}
	if r := es.Degradations(); r.StaleReads == 0 {
		t.Fatalf("stale reads not tallied: %+v", r)
	}
}

// TestStartRetriesBusyUntilWatchdogReleases drives rung 1 of the
// ladder: EBUSY backoff in tick time until the watchdog lets go.
func TestStartRetriesBusyUntilWatchdogReleases(t *testing.T) {
	s := newSim(hw.RaptorLake())
	l := initLib(t, s, Options{})
	pmu := s.HW.Types[0].PMU.PerfType

	s.Kernel.SetWatchdog(pmu, true)
	// Release the counter a few ticks in: the backoff's Step calls
	// advance the clock past the release, so a later attempt succeeds.
	s.Kernel.AttachFaults(faults.NewPlan(faults.Event{
		AtSec: s.Now() + 3*s.Tick(), Kind: faults.KindWatchdogRelease, PMU: pmu,
	}))

	loop := workload.NewInstructionLoop("busy", 1e9, 2000)
	p := s.Spawn(loop, hw.AllCPUs(s.HW))
	es := l.CreateEventSet()
	es.Attach(p.PID)
	if err := es.AddNamed("adl_glc::CPU_CLK_UNHALTED:THREAD"); err != nil {
		t.Fatal(err)
	}
	if err := es.Start(); err != nil {
		t.Fatalf("Start did not survive a transient watchdog hold: %v", err)
	}
	r := es.Degradations()
	if r.BusyRetries == 0 || r.RetryTicks == 0 {
		t.Fatalf("no retries recorded: %+v", r)
	}
	s.RunFor(0.1)
	vals, err := es.StopValues()
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Final == 0 {
		t.Fatal("no cycles counted after recovered start")
	}
}

// TestStartDefersBusyWhenRetryDisabled: with in-place retry disabled
// the EBUSY surfaces immediately as a deferred start, the contract
// per-tick drivers rely on.
func TestStartDefersBusyWhenRetryDisabled(t *testing.T) {
	s := newSim(hw.RaptorLake())
	l := initLib(t, s, Options{})
	pmu := s.HW.Types[0].PMU.PerfType
	s.Kernel.SetWatchdog(pmu, true)

	loop := workload.NewInstructionLoop("deferred", 1e9, 2000)
	p := s.Spawn(loop, hw.AllCPUs(s.HW))
	es := l.CreateEventSet()
	es.Attach(p.PID)
	es.AddNamed("adl_glc::CPU_CLK_UNHALTED:THREAD")
	es.SetStartRetry(-1)

	now := s.Now()
	if err := es.Start(); !errors.Is(err, perfevent.ErrBusy) {
		t.Fatalf("Start = %v, want ErrBusy", err)
	}
	if s.Now() != now {
		t.Fatal("disabled retry must not step the simulation")
	}
	if r := es.Degradations(); r.DeferredStarts != 1 {
		t.Fatalf("DeferredStarts = %d, want 1", r.DeferredStarts)
	}

	s.Kernel.SetWatchdog(pmu, false)
	if err := es.Start(); err != nil {
		t.Fatalf("Start after release: %v", err)
	}
	es.StopValues()
}

// TestENOSPCFallsBackToMultiplex drives rung 2: a counter budget too
// small for the group forces the sticky multiplex fallback, and reads
// carry explicit error bounds.
func TestENOSPCFallsBackToMultiplex(t *testing.T) {
	s := newSim(hw.RaptorLake())
	l := initLib(t, s, Options{})
	pmu := s.HW.Types[0].PMU.PerfType
	s.Kernel.SetCounterBudget(pmu, 2)

	loop := workload.NewInstructionLoop("squeezed", 1e9, 2000)
	p := s.Spawn(loop, hw.NewCPUSet(s.HW.CPUsOfClass(hw.Performance)...))
	es := l.CreateEventSet()
	es.Attach(p.PID)
	for _, n := range []string{
		"adl_glc::INST_RETIRED:ANY",
		"adl_glc::CPU_CLK_UNHALTED:THREAD_P",
		"adl_glc::BR_INST_RETIRED:ALL_BRANCHES",
		"adl_glc::MEM_INST_RETIRED:ALL_LOADS",
	} {
		if err := es.AddNamed(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := es.Start(); err != nil {
		t.Fatalf("Start did not absorb ENOSPC: %v", err)
	}
	r := es.Degradations()
	if r.MultiplexFallback != 1 {
		t.Fatalf("MultiplexFallback = %d, want 1", r.MultiplexFallback)
	}
	if !es.Degraded() {
		t.Fatal("set not marked degraded after fallback")
	}
	s.RunFor(0.5)
	vals, err := es.ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	sawBound := false
	for i, v := range vals {
		if v.Raw > v.Scaled {
			t.Fatalf("event %d: Raw %d > Scaled %d", i, v.Raw, v.Scaled)
		}
		if v.ErrorBound != v.Scaled-v.Raw {
			t.Fatalf("event %d: ErrorBound %d != Scaled-Raw %d", i, v.ErrorBound, v.Scaled-v.Raw)
		}
		if !v.Degraded {
			t.Fatalf("event %d not flagged degraded under fallback: %+v", i, v)
		}
		if v.ErrorBound > 0 {
			sawBound = true
		}
	}
	if !sawBound {
		t.Fatal("4 events on 2 counters should have multiplexed: no nonzero error bound")
	}
	if _, err := es.StopValues(); err != nil {
		t.Fatal(err)
	}
	if err := es.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if s.Kernel.NumOpen() != 0 {
		t.Fatalf("%d fds leaked", s.Kernel.NumOpen())
	}
}

// TestHotplugRebuildCarriesValue drives rung 3: a CPU-wide descriptor
// killed by hotplug is rebuilt on another CPU with its count carried
// forward, keeping reads monotonic and error-free.
func TestHotplugRebuildCarriesValue(t *testing.T) {
	s := newSim(hw.RaptorLake())
	l := initLib(t, s, Options{})

	loop := workload.NewInstructionLoop("hotplugged", 1e9, 2000)
	p := s.Spawn(loop, hw.AllCPUs(s.HW))
	es := l.CreateEventSet()
	es.Attach(p.PID)
	if err := es.AddNamed("adl_glc::INST_RETIRED:ANY"); err != nil {
		t.Fatal(err)
	}
	if err := es.AddNamed("rapl::ENERGY_PKG"); err != nil {
		t.Fatal(err)
	}
	if err := es.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunFor(0.3)
	before, err := es.ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if before[1].Final == 0 {
		t.Fatal("no package energy before hotplug")
	}

	// RAPL descriptors live on cpu0; kill it.
	s.SetCPUOnline(0, false)
	s.RunFor(0.3)
	after, err := es.ReadValues()
	if err != nil {
		t.Fatalf("read across hotplug must not fail: %v", err)
	}
	r := es.Degradations()
	if r.HotplugRebuilds != 1 {
		t.Fatalf("HotplugRebuilds = %d, want 1: %+v", r.HotplugRebuilds, r.Events)
	}
	if after[1].Final < before[1].Final {
		t.Fatalf("energy went backwards across rebuild: %d then %d", before[1].Final, after[1].Final)
	}
	if !after[1].Degraded {
		t.Fatalf("post-rebuild value not flagged degraded: %+v", after[1])
	}

	s.SetCPUOnline(0, true)
	s.RunFor(0.2)
	final, err := es.StopValues()
	if err != nil {
		t.Fatal(err)
	}
	if final[1].Final < after[1].Final {
		t.Fatalf("energy went backwards after re-online: %d then %d", after[1].Final, final[1].Final)
	}
	if err := es.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if s.Kernel.NumOpen() != 0 {
		t.Fatalf("%d fds leaked after rebuild + cleanup", s.Kernel.NumOpen())
	}
}

// TestPlainReadsCarryAcrossHotplugRebuild: Read, ReadFast and Stop (the
// plain PAPI_read and PAPI_stop) must report a hotplug-killed counter's
// carried count, and a rebuild must carry what they last read.
func TestPlainReadsCarryAcrossHotplugRebuild(t *testing.T) {
	s := newSim(hw.RaptorLake())
	l := initLib(t, s, Options{})

	loop := workload.NewInstructionLoop("hotplugged", 1e9, 2000)
	p := s.Spawn(loop, hw.AllCPUs(s.HW))
	es := l.CreateEventSet()
	es.Attach(p.PID)
	if err := es.AddNamed("adl_glc::INST_RETIRED:ANY"); err != nil {
		t.Fatal(err)
	}
	if err := es.AddNamed("rapl::ENERGY_PKG"); err != nil {
		t.Fatal(err)
	}
	if err := es.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunFor(0.3)
	before, err := es.Read()
	if err != nil {
		t.Fatal(err)
	}
	if before[1] == 0 {
		t.Fatal("no package energy before hotplug")
	}

	// RAPL descriptors live on cpu0; kill it. ReadValues rebuilds.
	s.SetCPUOnline(0, false)
	s.RunFor(0.3)
	vals, err := es.ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if r := es.Degradations(); r.HotplugRebuilds != 1 {
		t.Fatalf("HotplugRebuilds = %d, want 1", r.HotplugRebuilds)
	}
	if vals[1].Final < before[1] {
		t.Fatalf("rebuild dropped the energy Read reported: %d then %d", before[1], vals[1].Final)
	}
	after, err := es.Read()
	if err != nil {
		t.Fatal(err)
	}
	if after[1] < before[1] {
		t.Fatalf("Read after the rebuild lost the carried energy: %d then %d", before[1], after[1])
	}
	fast, err := es.ReadFast()
	if err != nil {
		t.Fatal(err)
	}
	if fast[1] < after[1] {
		t.Fatalf("ReadFast after the rebuild lost the carried energy: %d then %d", after[1], fast[1])
	}
	s.RunFor(0.1)
	final, err := es.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if final[1] < fast[1] {
		t.Fatalf("Stop after the rebuild lost the carried energy: %d then %d", fast[1], final[1])
	}
}
