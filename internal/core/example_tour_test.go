package core_test

// Longer worked examples, output-verified: the quickstart, region
// calipers, counter multiplexing, per-core-type characterization and
// the graceful-degradation ladder under injected kernel faults.

import (
	"fmt"
	"log"
	"strings"

	"hetpapi/internal/core"
	"hetpapi/internal/faults"
	"hetpapi/internal/hw"
	"hetpapi/internal/scenario"
	"hetpapi/internal/sim"
	"hetpapi/internal/workload"
)

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// Example_quickstart boots a simulated hybrid machine, initializes the
// PAPI-style library, and calipers a code region with a multi-PMU
// EventSet — the fine-grained start/stop measurement the paper
// highlights as PAPI's advantage over the perf tool.
func Example_quickstart() {
	// Boot the paper's Raptor Lake desktop: 8 P-cores + 8 E-cores. The
	// scheduler gets some migration noise so the single demo thread visits
	// both core types, as background load causes on a real desktop.
	cfg := sim.DefaultConfig()
	cfg.TickSec = 0.0001
	cfg.Sched.MigrateToEffProb = 0.15
	cfg.Sched.MigrateToPerfProb = 0.30
	cfg.Sched.BalancePeriodSec = 0.001
	cfg.Sched.Seed = 3
	machine := sim.New(hw.RaptorLake(), cfg)

	// PAPI_library_init.
	papi, err := core.Init(machine, core.Options{})
	must(err)

	info := papi.HardwareInfo()
	fmt.Printf("running on %s: %d CPUs, hybrid=%v\n", info.Model, info.TotalCPUs, info.Hybrid)
	for _, ct := range info.CoreTypes {
		fmt.Printf("  %s: %d cpus, PMU %s\n", ct.Name, len(ct.CPUs), ct.PMUName)
	}

	// A workload free to migrate between P- and E-cores.
	loop := workload.NewInstructionLoop("demo", 1e6, 500)
	proc := machine.Spawn(loop, hw.AllCPUs(machine.HW))

	// One EventSet, both core types, plus a preset and package energy —
	// everything the paper's sections IV.E, V.2 and V.3 enable.
	es := papi.CreateEventSet()
	must(es.Attach(proc.PID))
	must(es.AddNamed("adl_glc::INST_RETIRED:ANY")) // P-core instructions
	must(es.AddNamed("adl_grt::INST_RETIRED:ANY")) // E-core instructions
	must(es.AddPreset(core.PresetTotIns))          // derived hybrid sum
	must(es.AddNamed("rapl::ENERGY_PKG"))          // package energy

	must(es.Start())
	fmt.Printf("EventSet running: %d events in %d perf groups (one per PMU)\n",
		es.NumEvents(), es.NumGroups())

	if !machine.RunUntil(loop.Done, 60) {
		log.Fatal("workload did not finish")
	}

	vals, err := es.Stop()
	must(err)
	names := es.Names()
	fmt.Println("final counts:")
	for i, v := range vals {
		if names[i] == "rapl::ENERGY_PKG" {
			fmt.Printf("  %-28s %.2f J\n", names[i], float64(v)*machine.HW.Power.EnergyUnitJ)
			continue
		}
		fmt.Printf("  %-28s %d\n", names[i], v)
	}
	fmt.Printf("P + E = %d (loop retired %.0f); PAPI_TOT_INS reports the same sum transparently\n",
		vals[0]+vals[1], loop.TotalInstructions())
	must(es.Cleanup())
	// Output:
	// running on 13th Gen Intel(R) Core(TM) i7-13700: 24 CPUs, hybrid=true
	//   P-core: 16 cpus, PMU cpu_core
	//   E-core: 8 cpus, PMU cpu_atom
	// EventSet running: 4 events in 3 perf groups (one per PMU)
	// final counts:
	//   adl_glc::INST_RETIRED:ANY    442846000
	//   adl_grt::INST_RETIRED:ANY    57154000
	//   PAPI_TOT_INS                 500000000
	//   rapl::ENERGY_PKG             1.36 J
	// P + E = 500000000 (loop retired 500000000); PAPI_TOT_INS reports the same sum transparently
}

// Example_regions demonstrates the high-level region API
// (PAPI_hl_region_begin / PAPI_hl_region_end): calipering the phases of
// a composite application — a memory-bound load phase, a compute loop
// and a branchy analysis pass — with hybrid-aware presets that
// transparently sum both core types.
func Example_regions() {
	machine := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	papi, err := core.Init(machine, core.Options{})
	must(err)

	load := workload.NewStream("load", 3e8, 0.8, 1)
	compute := workload.NewInstructionLoop("compute", 1e6, 800)
	analyze := workload.NewBranchy("analyze", 4e8, 2)
	app := workload.NewSequence("app", load, compute, analyze)
	proc := machine.Spawn(app, hw.AllCPUs(machine.HW))

	hl, err := papi.NewHL(proc.PID,
		core.PresetTotIns, core.PresetTotCyc, core.PresetBrMsp, core.PresetL3TCM)
	must(err)
	defer hl.Close()

	// Caliper each phase as the sequence advances.
	for _, name := range []string{"load", "compute", "analyze"} {
		idx := app.PhaseIndex()
		if app.Done() {
			break
		}
		must(hl.Begin(name))
		if !machine.RunUntil(func() bool { return app.PhaseIndex() > idx || app.Done() }, 120) {
			log.Fatalf("phase %s did not finish", name)
		}
		must(hl.End(name))
	}

	fmt.Println("per-region report (PAPI high-level API, hybrid presets):")
	for _, line := range strings.Split(strings.TrimSpace(hl.Report()), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}

	// The load phase shows the LLC misses, the analyze phase the branch
	// misses, and the compute phase the highest IPC — measured through
	// one EventSet spanning both core-type PMUs.
	fmt.Println("derived views:")
	for _, r := range hl.Regions() {
		st := hl.Stats(r)
		ins, cyc, msp, l3m := st.Values[0], st.Values[1], st.Values[2], st.Values[3]
		fmt.Printf("  %-8s IPC %.2f   branch misses/kI %6.2f   LLC misses/kI %6.2f\n",
			r,
			float64(ins)/float64(cyc),
			1000*float64(msp)/float64(ins),
			1000*float64(l3m)/float64(ins))
	}
	// Output:
	// per-region report (PAPI high-level API, hybrid presets):
	// region   count  seconds  PAPI_TOT_INS  PAPI_TOT_CYC  PAPI_BR_MSP  PAPI_L3_TCM
	// analyze  1      0.074    400000000     372572222     11436650     882000
	// compute  1      0.066    800000000     333333333     3200000      720000
	// load     1      0.062    300000000     312500000     150000       57322226
	// derived views:
	//   load     IPC 0.96   branch misses/kI   0.50   LLC misses/kI 191.07
	//   compute  IPC 2.40   branch misses/kI   4.00   LLC misses/kI   0.90
	//   analyze  IPC 1.07   branch misses/kI  28.59   LLC misses/kI   2.21
}

// ExampleEventSet_SetMultiplex demonstrates counter multiplexing and the
// rdpmc fast-read path on the simulated Raptor Lake: 14 P-core events
// share 11 hardware counters, so the kernel rotates them and PAPI scales
// the values by time-enabled/time-running. It also contrasts the
// syscall cost of normal reads (one per perf group) with rdpmc
// user-space reads — the overhead question of the paper's section V.5.
func ExampleEventSet_SetMultiplex() {
	machine := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	papi, err := core.Init(machine, core.Options{})
	must(err)

	// A pinned spin workload so the scaled estimates have a known truth.
	spin := workload.NewSpin("spin", 10)
	proc := machine.Spawn(spin, hw.NewCPUSet(0))

	names := []string{
		"adl_glc::INST_RETIRED:ANY",
		"adl_glc::CPU_CLK_UNHALTED:THREAD",
		"adl_glc::CPU_CLK_UNHALTED:REF_TSC",
		"adl_glc::BR_INST_RETIRED:ALL_BRANCHES",
		"adl_glc::BR_INST_RETIRED:COND",
		"adl_glc::BR_MISP_RETIRED:ALL_BRANCHES",
		"adl_glc::LONGEST_LAT_CACHE:REFERENCE",
		"adl_glc::LONGEST_LAT_CACHE:MISS",
		"adl_glc::MEM_INST_RETIRED:ALL_LOADS",
		"adl_glc::MEM_INST_RETIRED:ALL_STORES",
		"adl_glc::CYCLE_ACTIVITY:STALLS_TOTAL",
		"adl_glc::UOPS_RETIRED:SLOTS",
		"adl_glc::TOPDOWN:SLOTS",
		"adl_glc::DTLB_LOAD_MISSES:WALK_COMPLETED",
	}

	es := papi.CreateEventSet()
	must(es.Attach(proc.PID))
	must(es.SetMultiplex())
	for _, n := range names {
		must(es.AddNamed(n))
	}
	must(es.Start())
	pcore := machine.HW.TypeByName("P-core")
	fmt.Printf("%d events on a PMU with %d counters -> %d multiplexed groups\n",
		es.NumEvents(), pcore.PMU.NumGP+pcore.PMU.NumFixed, es.NumGroups())

	machine.RunFor(5)

	before := machine.Kernel.Syscalls()
	vals, err := es.Read()
	must(err)
	readCost := machine.Kernel.Syscalls() - before

	before = machine.Kernel.Syscalls()
	fast, err := es.ReadFast()
	must(err)
	fastCost := machine.Kernel.Syscalls() - before

	fmt.Println("scaled estimates after 5 s (values are time-scaled across rotations):")
	for i, n := range names {
		fmt.Printf("  %-44s %15d\n", n, vals[i])
	}
	ipc := float64(vals[0]) / float64(vals[1])
	fmt.Printf("estimated IPC = %.2f (spin loop retires ~%.1f on this core)\n",
		ipc, pcore.BaseIPC*2.2)
	fmt.Printf("read() cost: %d syscalls; rdpmc fast read: %d syscalls (values match: %v)\n",
		readCost, fastCost, fast[0] == vals[0] || fast[0] > 0)
	_, err = es.Stop()
	must(err)
	must(es.Cleanup())
	// Output:
	// 14 events on a PMU with 11 counters -> 14 multiplexed groups
	// scaled estimates after 5 s (values are time-scaled across rotations):
	//   adl_glc::INST_RETIRED:ANY                       134640000000
	//   adl_glc::CPU_CLK_UNHALTED:THREAD                 25500000000
	//   adl_glc::CPU_CLK_UNHALTED:REF_TSC                10500000000
	//   adl_glc::BR_INST_RETIRED:ALL_BRANCHES            44431200000
	//   adl_glc::BR_INST_RETIRED:COND                    31990463999
	//   adl_glc::BR_MISP_RETIRED:ALL_BRANCHES               44431199
	//   adl_glc::LONGEST_LAT_CACHE:REFERENCE                 2086918
	//   adl_glc::LONGEST_LAT_CACHE:MISS                        41738
	//   adl_glc::MEM_INST_RETIRED:ALL_LOADS              40392000000
	//   adl_glc::MEM_INST_RETIRED:ALL_STORES              1346400000
	//   adl_glc::CYCLE_ACTIVITY:STALLS_TOTAL              1275000000
	//   adl_glc::UOPS_RETIRED:SLOTS                     150796800000
	//   adl_glc::TOPDOWN:SLOTS                          153000000000
	//   adl_glc::DTLB_LOAD_MISSES:WALK_COMPLETED              834767
	// estimated IPC = 5.28 (spin loop retires ~5.3 on this core)
	// read() cost: 14 syscalls; rdpmc fast read: 0 syscalls (values match: true)
}

// Example_characterize measures how different workload classes behave
// on each core type of the hybrid machine — the per-core-type IPC
// methodology of the big.LITTLE characterization studies the paper
// builds on (Vasilakis et al., Whitehouse et al.). Each workload is
// pinned to one core of each type in turn and measured with a PAPI
// EventSet on that type's PMU. Compute keeps its IPC on both types;
// memory and branchy collapse, and collapse less on the E-core, which
// is why LLC-hostile work belongs on E-cores (the placement insight
// behind Table II).
func Example_characterize() {
	fmt.Printf("%-10s %-8s %10s %10s %8s %12s %12s\n",
		"workload", "core", "Minstr", "Mcycles", "IPC", "brMiss/kI", "llcMiss/kI")
	for _, wl := range []string{"compute", "memory", "branchy"} {
		for _, coreName := range []string{"P-core", "E-core"} {
			ins, cyc, msp, llc := characterize(wl, coreName)
			fmt.Printf("%-10s %-8s %10.0f %10.0f %8.2f %12.2f %12.2f\n",
				wl, coreName, ins/1e6, cyc/1e6, ins/cyc, 1000*msp/ins, 1000*llc/ins)
		}
	}
	// Output:
	// workload   core         Minstr    Mcycles      IPC    brMiss/kI   llcMiss/kI
	// compute    P-core         2000        833     2.40         4.00         0.90
	// compute    E-core         2000       1176     1.70         4.00         0.90
	// memory     P-core         2000       2083     0.96         0.50       191.97
	// memory     E-core         2000       2941     0.68         0.50       191.72
	// branchy    P-core         2000       1852     1.08        28.80         2.21
	// branchy    E-core         2000       2139     0.94        28.78         2.21
}

// characterize runs one workload class pinned to the first CPU of one
// core type and returns its instructions, cycles, branch misses and LLC
// misses as that type's PMU counted them.
func characterize(wl, coreName string) (ins, cyc, msp, llc float64) {
	machine := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	papi, err := core.Init(machine, core.Options{})
	must(err)
	cpu := machine.HW.CPUsOfType(coreName)[0]

	var task workload.Task
	switch wl {
	case "compute":
		task = workload.NewInstructionLoop("c", 1e6, 2000)
	case "memory":
		task = workload.NewStream("m", 2e9, 0.8, 1)
	default:
		task = workload.NewBranchy("b", 2e9, 1)
	}
	proc := machine.Spawn(task, hw.NewCPUSet(cpu))

	pfm := machine.HW.TypeOf(cpu).PfmName
	cycles := pfm + "::CPU_CLK_UNHALTED:THREAD"
	if pfm == "adl_grt" {
		cycles = pfm + "::CPU_CLK_UNHALTED:CORE"
	}
	es := papi.CreateEventSet()
	must(es.Attach(proc.PID))
	for _, n := range []string{
		pfm + "::INST_RETIRED",
		cycles,
		pfm + "::BR_MISP_RETIRED:ALL_BRANCHES",
		pfm + "::LONGEST_LAT_CACHE:MISS",
	} {
		must(es.AddNamed(n))
	}
	must(es.Start())
	if !machine.RunUntil(task.Done, 600) {
		log.Fatalf("%s on %s did not finish", wl, coreName)
	}
	vals, err := es.Stop()
	must(err)
	must(es.Cleanup())
	return float64(vals[0]), float64(vals[1]), float64(vals[2]), float64(vals[3])
}

// ExampleEventSet_Degradations walks the graceful-degradation ladder end
// to end: the simulated kernel misbehaves the way real perf_event
// substrates do — the NMI watchdog steals the fixed cycles counter
// (EBUSY), another PMU user exhausts the counter budget (ENOSPC), a CPU
// hotplugs away mid-measurement (ENODEV) — and the EventSet climbs its
// ladder so every read still completes with an explicit error bound
// instead of failing. A reference fault scenario then shows the same
// machinery surviving faults under the full invariant audit.
func ExampleEventSet_Degradations() {
	busyRetry()
	enospcFallback()
	hotplugRebuild()
	auditedScenario()
	// Output:
	// 1. EBUSY: NMI watchdog holds the fixed cycles counter
	//    Start retried 3 times over 7 ticks, then counted 510000000 cycles
	// 2. ENOSPC: counter budget forces the multiplex fallback
	//    multiplex fallback taken 1 time(s); readings with error bounds:
	//    adl_glc::INST_RETIRED:ANY                final=  6120000000  raw=  3084480000  x1.98  ±3035520000
	//    adl_glc::CPU_CLK_UNHALTED:THREAD         final=  2550000000  raw=  1285200000  x1.98  ±1264800000
	//    adl_glc::BR_INST_RETIRED:ALL_BRANCHES    final=  1223999999  raw=   607104000  x2.02  ±616895999
	//    adl_glc::LONGEST_LAT_CACHE:MISS          final=     5507999  raw=     2731968  x2.02  ±2776031
	// 3. ENODEV: CPU hotplug kills a descriptor mid-measurement
	//    energy before offline: 156885, after rebuild: 156885 (monotonic: true)
	//    hotplug rebuilds: 1; degradation log:
	//    t=0.600    hotplug-rebuild    group fd 4 died with its CPU: rebuilt on cpu1 as fd 5
	// 4. Audited fault scenario: biglittle-hotplug (counter steal + CPU cycle)
	//    completed=true elapsed=4.2s violations=0
	//    PAPI_TOT_INS   final=  5290584000  ±0          stale=false degraded=false
	//    PAPI_TOT_CYC   final=  5290584000  ±0          stale=false degraded=false
	//    degradations: busy=0 deferred=401 mux=0 rebuilds=0 stale=0 clamps=0
}

// busyRetry shows rung 1 of the ladder: Start meets EBUSY because the
// watchdog holds the fixed cycles counter, backs off in simulated tick
// time, and succeeds once a scheduled fault releases the reservation.
func busyRetry() {
	fmt.Println("1. EBUSY: NMI watchdog holds the fixed cycles counter")
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	papi, err := core.Init(s, core.Options{})
	must(err)
	pmu := s.HW.Types[0].PMU.PerfType
	s.Kernel.SetWatchdog(pmu, true)
	// The fault plan releases the counter a few ticks in — while Start is
	// still inside its backoff loop.
	s.Kernel.AttachFaults(faults.NewPlan(faults.Event{
		AtSec: s.Now() + 4*s.Tick(), Kind: faults.KindWatchdogRelease, PMU: pmu,
	}))

	p := s.Spawn(workload.NewInstructionLoop("busy", 1e9, 2000), hw.AllCPUs(s.HW))
	es := papi.CreateEventSet()
	must(es.Attach(p.PID))
	must(es.AddNamed("adl_glc::CPU_CLK_UNHALTED:THREAD"))
	must(es.Start()) // EBUSY inside, retried; returns after the release
	s.RunFor(0.1)
	vals, err := es.StopValues()
	must(err)
	r := es.Degradations()
	fmt.Printf("   Start retried %d times over %d ticks, then counted %d cycles\n",
		r.BusyRetries, r.RetryTicks, vals[0].Final)
	must(es.Cleanup())
}

// enospcFallback shows rung 2: a counter budget (counters held by another
// PMU user) makes the one-group open fail with ENOSPC; the set falls back
// to per-event groups, the kernel multiplexes them, and every reading
// carries its extrapolation error bound.
func enospcFallback() {
	fmt.Println("2. ENOSPC: counter budget forces the multiplex fallback")
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	papi, err := core.Init(s, core.Options{})
	must(err)
	pcores := hw.NewCPUSet(s.HW.CPUsOfClass(hw.Performance)...)
	s.Kernel.SetCounterBudget(s.HW.Types[0].PMU.PerfType, 2)

	p := s.Spawn(workload.NewInstructionLoop("squeezed", 1e9, 4000), pcores)
	es := papi.CreateEventSet()
	must(es.Attach(p.PID))
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
	must(err)
	r := es.Degradations()
	fmt.Printf("   multiplex fallback taken %d time(s); readings with error bounds:\n", r.MultiplexFallback)
	for i, name := range es.Names() {
		v := vals[i]
		fmt.Printf("   %-40s final=%12d  raw=%12d  x%.2f  ±%d\n",
			name, v.Final, v.Raw, v.ScaleFactor, v.ErrorBound)
	}
	must(es.Cleanup())
}

// hotplugRebuild shows rung 3: the CPU backing the RAPL descriptor goes
// offline mid-run, the dead group is rebuilt on a surviving CPU with the
// accumulated count carried over, and reads never go backwards.
func hotplugRebuild() {
	fmt.Println("3. ENODEV: CPU hotplug kills a descriptor mid-measurement")
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	papi, err := core.Init(s, core.Options{})
	must(err)
	p := s.Spawn(workload.NewInstructionLoop("hotplugged", 1e9, 2000), hw.AllCPUs(s.HW))
	es := papi.CreateEventSet()
	must(es.Attach(p.PID))
	must(es.AddNamed("adl_glc::INST_RETIRED:ANY"))
	must(es.AddNamed("rapl::ENERGY_PKG")) // lives on cpu0
	must(es.Start())
	s.RunFor(0.3)
	before, err := es.ReadValues()
	must(err)

	s.SetCPUOnline(0, false) // kill the RAPL descriptor's CPU
	s.RunFor(0.3)
	after, err := es.ReadValues()
	must(err) // a read across the hotplug must not fail
	s.SetCPUOnline(0, true)
	s.RunFor(0.1)
	_, err = es.StopValues()
	must(err)

	r := es.Degradations()
	fmt.Printf("   energy before offline: %d, after rebuild: %d (monotonic: %v)\n",
		before[1].Final, after[1].Final, after[1].Final >= before[1].Final)
	fmt.Printf("   hotplug rebuilds: %d; degradation log:\n", r.HotplugRebuilds)
	for _, ev := range r.Events {
		fmt.Printf("   t=%-8.3f %-18s %s\n", ev.AtSec, ev.Kind, ev.Detail)
	}
	must(es.Cleanup())
}

// auditedScenario runs a reference fault scenario — counter steal plus a
// hotplug cycle on the big.LITTLE board — under the full invariant audit.
func auditedScenario() {
	fmt.Println("4. Audited fault scenario: biglittle-hotplug (counter steal + CPU cycle)")
	spec, err := scenario.Lookup("biglittle-hotplug")
	must(err)
	res, err := scenario.Run(spec)
	must(err)
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
