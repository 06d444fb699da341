// Command papihet is the PAPI-style utility for the simulated machines:
// it reports hardware info (papi_hardware_info), lists native events and
// presets (papi_native_avail / papi_avail), runs the sysdetect component,
// and executes the paper's papi_hybrid_100m_one_eventset test.
//
// Usage:
//
//	papihet [-machine raptorlake|orangepi800|dimensity9000|homogeneous] [-legacy] <command>
//
// Commands:
//
//	info       print PAPI_get_hardware_info-style hardware description
//	avail      list the preset events and their native expansions
//	native     list every native event of every PMU
//	sysdetect  run the core-type detection heuristics
//	hybrid     run the papi_hybrid test (patched vs legacy PAPI)
//	cost       measure EventSet operation costs (papi_cost)
//	measure    run a workload with user-chosen events (papi_command_line)
//
// The measure command takes -events (comma-separated native event names or
// PAPI_* presets) and -wl (spin, loop, stream, branchy):
//
//	papihet -events PAPI_TOT_INS,adl_grt::TOPDOWN:SLOTS measure   # error: E-cores have no topdown
//	papihet -events PAPI_TOT_INS,PAPI_TOT_CYC,rapl::ENERGY_PKG measure
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hetpapi/internal/core"
	"hetpapi/internal/exp"
	"hetpapi/internal/hw"
	"hetpapi/internal/sim"
	"hetpapi/internal/workload"
)

func main() {
	machineFlag := flag.String("machine", "raptorlake", "machine model to simulate")
	legacyFlag := flag.Bool("legacy", false, "run in PAPI 7.1 compatibility mode (no hybrid support)")
	eventsFlag := flag.String("events", "PAPI_TOT_INS,PAPI_TOT_CYC", "events for the measure command")
	wlFlag := flag.String("wl", "loop", "workload for the measure command: spin, loop, stream or branchy")
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if flag.Arg(0) == "measure" {
		if err := runMeasure(*machineFlag, *legacyFlag, *eventsFlag, *wlFlag); err != nil {
			fmt.Fprintln(os.Stderr, "papihet:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*machineFlag, *legacyFlag, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "papihet:", err)
		os.Exit(1)
	}
}

func run(machineName string, legacy bool, command string) error {
	model, err := hw.LookupModel(machineName)
	if err != nil {
		return err
	}
	m := model.Make()
	s := sim.New(m, sim.DefaultConfig())
	lib, err := core.Init(s, core.Options{Legacy: legacy})
	if err != nil {
		return err
	}

	switch command {
	case "info":
		printInfo(lib)
	case "avail":
		printAvail(lib)
	case "native":
		printNative(lib)
	case "sysdetect":
		return printSysdetect(lib)
	case "hybrid":
		return runHybrid(machineName)
	case "cost":
		return runCost(machineName)
	default:
		return fmt.Errorf("unknown command %q", command)
	}
	return nil
}

func printInfo(lib *core.Library) {
	info := lib.HardwareInfo()
	fmt.Printf("Vendor          : %s\n", info.Vendor)
	fmt.Printf("Model           : %s\n", info.Model)
	fmt.Printf("Architecture    : %s\n", info.Arch)
	fmt.Printf("Family/Model/Step: %d/%d/%d\n", info.Family, info.ModelID, info.Stepping)
	fmt.Printf("CPUs            : %d (%d cores)\n", info.TotalCPUs, info.Cores)
	fmt.Printf("Memory          : %.0f GB\n", info.MemGB)
	fmt.Printf("Hybrid          : %v\n", info.Hybrid)
	for _, ct := range info.CoreTypes {
		fmt.Printf("  core type %-8s (%s, %s class): pmu=%s pfm=%s max=%.0f MHz cpus=%v\n",
			ct.Name, ct.Microarch, ct.Class, ct.PMUName, ct.PfmName, ct.MaxMHz, ct.CPUs)
	}
	if lib.Legacy() {
		fmt.Println("  (legacy mode: per-core-type reporting unavailable, see paper section V.1)")
	}
}

func printAvail(lib *core.Library) {
	fmt.Println("Preset          Avail  Derived  Partial  Natives")
	for _, p := range lib.Presets() {
		fmt.Printf("%-15s %-6v %-8v %-8v %v\n", p.Name, p.Available, p.Derived, p.Partial, p.Natives)
	}
}

func printNative(lib *core.Library) {
	for _, pmu := range lib.Pfm().PMUs() {
		kind := "uncore"
		if pmu.IsCore {
			kind = "core"
		}
		fmt.Printf("PMU %s (%s, %s, perf type %d, %d events, default=%v)\n",
			pmu.Name, pmu.Desc, kind, pmu.PerfType, pmu.NumEvents, pmu.IsDefault)
		evs, err := lib.Pfm().EventsForPMU(pmu.Name)
		if err != nil {
			continue
		}
		for _, e := range evs {
			fmt.Printf("  %s\n", e)
		}
	}
}

func printSysdetect(lib *core.Library) error {
	res, err := lib.SysDetect()
	if err != nil {
		return err
	}
	fmt.Printf("detection strategy: %s\n", res.Strategy)
	for _, g := range res.Groups {
		fmt.Printf("  %-20s cpus %v\n", g.Key, g.CPUs)
	}
	return nil
}

func runCost(machineName string) error {
	if machineName != "raptorlake" {
		return fmt.Errorf("the cost measurement is defined for the raptorlake machine")
	}
	res, err := exp.Overhead(exp.Default())
	if err != nil {
		return err
	}
	fmt.Println("papi_cost: syscall-equivalents per EventSet operation")
	fmt.Print(res)

	// Wall-clock latency of the measurement paths on this host.
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	lib, err := core.Init(s, core.Options{})
	if err != nil {
		return err
	}
	p := s.Spawn(workload.NewSpin("w", 1e12), hw.NewCPUSet(0))
	es := lib.CreateEventSet()
	if err := es.Attach(p.PID); err != nil {
		return err
	}
	for _, n := range []string{
		"adl_glc::INST_RETIRED:ANY", "adl_glc::CPU_CLK_UNHALTED:THREAD",
		"adl_grt::INST_RETIRED:ANY", "adl_grt::CPU_CLK_UNHALTED:CORE",
	} {
		if err := es.AddNamed(n); err != nil {
			return err
		}
	}
	if err := es.Start(); err != nil {
		return err
	}
	s.RunFor(0.05)
	const iters = 200000
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := es.Read(); err != nil {
			return err
		}
	}
	readNs := time.Since(t0).Nanoseconds() / iters
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := es.ReadFast(); err != nil {
			return err
		}
	}
	fastNs := time.Since(t0).Nanoseconds() / iters
	if _, err := es.Stop(); err != nil {
		return err
	}
	if err := es.Cleanup(); err != nil {
		return err
	}
	fmt.Printf("\nhost-measured latency (multi-PMU 4-event set, %d iterations):\n", iters)
	fmt.Printf("  PAPI_read           %6d ns\n", readNs)
	fmt.Printf("  PAPI_read (rdpmc)   %6d ns\n", fastNs)
	return nil
}

// runMeasure is the papi_command_line equivalent: caliper a workload with
// an arbitrary list of presets and native events.
func runMeasure(machineName string, legacy bool, eventsList, wl string) error {
	model, err := hw.LookupModel(machineName)
	if err != nil {
		return err
	}
	m := model.Make()
	s := sim.New(m, sim.DefaultConfig())
	lib, err := core.Init(s, core.Options{Legacy: legacy})
	if err != nil {
		return err
	}

	var task workload.Task
	switch wl {
	case "spin":
		task = workload.NewSpin("spin", 2)
	case "loop":
		task = workload.NewInstructionLoop("loop", 1e6, 2000)
	case "stream":
		task = workload.NewStream("stream", 2e9, 0.8, 42)
	case "branchy":
		task = workload.NewBranchy("branchy", 2e9, 42)
	default:
		return fmt.Errorf("unknown workload %q", wl)
	}
	proc := s.Spawn(task, hw.AllCPUs(m))

	es := lib.CreateEventSet()
	if err := es.Attach(proc.PID); err != nil {
		return err
	}
	for _, name := range strings.Split(eventsList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		var err error
		if strings.HasPrefix(name, "PAPI_") {
			err = es.AddPreset(core.Preset(name))
		} else {
			err = es.AddNamed(name)
		}
		if err != nil {
			return fmt.Errorf("adding %q: %w", name, err)
		}
	}
	startUs := lib.RealUsec()
	if err := es.Start(); err != nil {
		return err
	}
	if !s.RunUntil(task.Done, 600) {
		return fmt.Errorf("workload did not finish")
	}
	vals, err := es.Stop()
	if err != nil {
		return err
	}
	elapsedUs := lib.RealUsec() - startUs
	defer es.Cleanup()

	fmt.Printf("measured %s for %d us on %s (%d events in %d perf groups):\n",
		wl, elapsedUs, machineName, es.NumEvents(), es.NumGroups())
	for i, name := range es.Names() {
		fmt.Printf("  %-44s %18d\n", name, vals[i])
	}
	return nil
}

func runHybrid(machineName string) error {
	if machineName != "raptorlake" {
		return fmt.Errorf("the hybrid test is defined for the raptorlake machine")
	}
	res, err := exp.HybridTest(exp.Default())
	if err != nil {
		return err
	}
	fmt.Print(res)
	return nil
}
