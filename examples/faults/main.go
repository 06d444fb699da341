// faults demonstrates the fault-injection layer and the graceful
// degradation above it, end to end: the simulated kernel misbehaves the
// way real perf_event substrates do — the NMI watchdog steals the fixed
// cycles counter (EBUSY), another PMU user exhausts the counter budget
// (ENOSPC), a CPU hotplugs away mid-measurement (ENODEV) — and the
// PAPI-style core layer climbs its degradation ladder so every read
// still completes with an explicit error bound instead of failing.
//
// Run with: go run ./examples/faults
package main

import (
	"fmt"
	"log"

	"hetpapi/internal/core"
	"hetpapi/internal/faults"
	"hetpapi/internal/hw"
	"hetpapi/internal/scenario"
	"hetpapi/internal/sim"
	"hetpapi/internal/workload"
)

func main() {
	busyRetry()
	enospcFallback()
	hotplugRebuild()
	auditedScenario()
}

// busyRetry shows rung 1 of the ladder: Start meets EBUSY because the
// watchdog holds the fixed cycles counter, backs off in simulated tick
// time, and succeeds once a scheduled fault releases the reservation.
func busyRetry() {
	fmt.Println("1. EBUSY: NMI watchdog holds the fixed cycles counter")
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	papi, err := core.Init(s, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	pmu := s.HW.Types[0].PMU.PerfType
	s.Kernel.SetWatchdog(pmu, true)
	// The fault plan releases the counter a few ticks in — while Start is
	// still inside its backoff loop.
	s.Kernel.AttachFaults(faults.NewPlan(faults.Event{
		AtSec: s.Now() + 4*s.Tick(), Kind: faults.KindWatchdogRelease, PMU: pmu,
	}))

	p := s.Spawn(workload.NewInstructionLoop("busy", 1e9, 2000), hw.AllCPUs(s.HW))
	es := papi.CreateEventSet()
	es.Attach(p.PID)
	must(es.AddNamed("adl_glc::CPU_CLK_UNHALTED:THREAD"))
	must(es.Start()) // EBUSY inside, retried; returns after the release
	s.RunFor(0.1)
	vals, err := es.StopValues()
	if err != nil {
		log.Fatal(err)
	}
	r := es.Degradations()
	fmt.Printf("   Start retried %d times over %d ticks, then counted %d cycles\n",
		r.BusyRetries, r.RetryTicks, vals[0].Final)
	es.Cleanup()
	fmt.Println()
}

// enospcFallback shows rung 2: a counter budget (counters held by another
// PMU user) makes the one-group open fail with ENOSPC; the set falls back
// to per-event groups, the kernel multiplexes them, and every reading
// carries its extrapolation error bound.
func enospcFallback() {
	fmt.Println("2. ENOSPC: counter budget forces the multiplex fallback")
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	papi, err := core.Init(s, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	pcores := hw.NewCPUSet(s.HW.CPUsOfClass(hw.Performance)...)
	s.Kernel.SetCounterBudget(s.HW.Types[0].PMU.PerfType, 2)

	p := s.Spawn(workload.NewInstructionLoop("squeezed", 1e9, 4000), pcores)
	es := papi.CreateEventSet()
	es.Attach(p.PID)
	for _, name := range []string{
		"adl_glc::INST_RETIRED:ANY",
		"adl_glc::CPU_CLK_UNHALTED:THREAD",
		"adl_glc::BR_INST_RETIRED:ALL_BRANCHES",
		"adl_glc::LONGEST_LAT_CACHE:MISS",
	} {
		must(es.AddNamed(name))
	}
	must(es.Start()) // ENOSPC inside: 4 events cannot group under budget 2
	s.RunFor(0.5)
	vals, err := es.StopValues()
	if err != nil {
		log.Fatal(err)
	}
	r := es.Degradations()
	fmt.Printf("   multiplex fallback taken %d time(s); readings with error bounds:\n", r.MultiplexFallback)
	for i, name := range es.Names() {
		v := vals[i]
		fmt.Printf("   %-40s final=%12d  raw=%12d  x%.2f  ±%d\n",
			name, v.Final, v.Raw, v.ScaleFactor, v.ErrorBound)
	}
	es.Cleanup()
	fmt.Println()
}

// hotplugRebuild shows rung 3: the CPU backing the RAPL descriptor goes
// offline mid-run, the dead group is rebuilt on a surviving CPU with the
// accumulated count carried over, and reads never go backwards.
func hotplugRebuild() {
	fmt.Println("3. ENODEV: CPU hotplug kills a descriptor mid-measurement")
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	papi, err := core.Init(s, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	p := s.Spawn(workload.NewInstructionLoop("hotplugged", 1e9, 2000), hw.AllCPUs(s.HW))
	es := papi.CreateEventSet()
	es.Attach(p.PID)
	must(es.AddNamed("adl_glc::INST_RETIRED:ANY"))
	must(es.AddNamed("rapl::ENERGY_PKG")) // lives on cpu0
	must(es.Start())
	s.RunFor(0.3)
	before, _ := es.ReadValues()

	s.SetCPUOnline(0, false) // kill the RAPL descriptor's CPU
	s.RunFor(0.3)
	after, err := es.ReadValues()
	if err != nil {
		log.Fatalf("read across hotplug must not fail: %v", err)
	}
	s.SetCPUOnline(0, true)
	s.RunFor(0.1)
	es.StopValues()

	r := es.Degradations()
	fmt.Printf("   energy before offline: %d, after rebuild: %d (monotonic: %v)\n",
		before[1].Final, after[1].Final, after[1].Final >= before[1].Final)
	fmt.Printf("   hotplug rebuilds: %d; degradation log:\n", r.HotplugRebuilds)
	for _, ev := range r.Events {
		fmt.Printf("   t=%-8.3f %-18s %s\n", ev.AtSec, ev.Kind, ev.Detail)
	}
	es.Cleanup()
	fmt.Println()
}

// auditedScenario runs a reference fault scenario — counter steal plus a
// hotplug cycle on the big.LITTLE board — under the full invariant audit,
// showing the same machinery surviving faults inside the harness.
func auditedScenario() {
	fmt.Println("4. Audited fault scenario: biglittle-hotplug (counter steal + CPU cycle)")
	spec, err := scenario.Lookup("biglittle-hotplug")
	if err != nil {
		log.Fatal(err)
	}
	res, err := scenario.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   completed=%v elapsed=%.1fs violations=%d\n",
		res.Completed, res.ElapsedSec, len(res.Violations))
	for i, name := range spec.Measure.Events {
		v := res.MeasureFinal[i]
		fmt.Printf("   %-14s final=%12d  ±%-10d stale=%-5v degraded=%v\n",
			name, v.Final, v.ErrorBound, v.Stale, v.Degraded)
	}
	d := res.Degradations
	fmt.Printf("   degradations: busy=%d deferred=%d mux=%d rebuilds=%d stale=%d clamps=%d\n",
		d.BusyRetries, d.DeferredStarts, d.MultiplexFallback,
		d.HotplugRebuilds, d.StaleReads, d.MonotonicClamps)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
