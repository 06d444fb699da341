// Command perfstat is a perf-stat-like tool for the simulated machines: it
// runs a workload and reports system-wide counters split per core type,
// the way "perf stat -a" reports hybrid events. It demonstrates the
// kernel-level (non-PAPI) path of measuring heterogeneous systems, where
// one event per PMU type must be opened and two or more reads gather the
// values.
//
// Usage:
//
//	perfstat [-machine NAME] [-workload spin|loop|stream|hpl] [-seconds S]
//	         [-cores LIST] [-sample-period N]
//
// With -sample-period the first task is additionally profiled perf-record
// style: one sampled instructions event per core-type PMU, reported as a
// per-CPU sample histogram.
package main

import (
	"flag"
	"fmt"
	"os"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
	"hetpapi/internal/perfevent"
	"hetpapi/internal/sim"
	"hetpapi/internal/sysfs"
	"hetpapi/internal/workload"
)

func main() {
	machineFlag := flag.String("machine", "raptorlake", "machine model")
	wl := flag.String("workload", "loop", "workload: spin, loop, stream or hpl")
	seconds := flag.Float64("seconds", 5, "how long to run (spin workload) / cap")
	coresFlag := flag.String("cores", "", "cpulist affinity (default: all cpus)")
	samplePeriod := flag.Uint64("sample-period", 0, "also sample the first task every N instructions")
	flag.Parse()
	if err := run(*machineFlag, *wl, *seconds, *coresFlag, *samplePeriod); err != nil {
		fmt.Fprintln(os.Stderr, "perfstat:", err)
		os.Exit(1)
	}
}

func run(machineName, wl string, seconds float64, coresFlag string, samplePeriod uint64) error {
	model, err := hw.LookupModel(machineName)
	if err != nil {
		return err
	}
	m := model.Make()
	s := sim.New(m, sim.DefaultConfig())

	affinity := hw.AllCPUs(m)
	if coresFlag != "" {
		ids, err := sysfs.ParseCPUList(coresFlag)
		if err != nil {
			return err
		}
		affinity = hw.NewCPUSet(ids...)
	}

	var tasks []workload.Task
	var done func() bool
	switch wl {
	case "spin":
		t := workload.NewSpin("spin", seconds)
		tasks = append(tasks, t)
		done = t.Done
	case "loop":
		t := workload.NewInstructionLoop("loop", 1e6, 1000)
		tasks = append(tasks, t)
		done = t.Done
	case "stream":
		t := workload.NewStream("stream", 5e9, 0.8, 42)
		tasks = append(tasks, t)
		done = t.Done
	case "hpl":
		h, err := workload.NewHPL(workload.HPLConfig{
			N: 9600, NB: 192, Threads: affinity.Count(), Strategy: workload.OpenBLASx86(), Seed: 42,
		})
		if err != nil {
			return err
		}
		tasks = h.Threads()
		done = h.Done
	default:
		return fmt.Errorf("unknown workload %q", wl)
	}

	// Open system-wide events per CPU, one attr per core-type PMU — the
	// hybrid perf pattern: generic hardware events extended with the CPU's
	// PMU type, as "perf stat -e cpu_core/instructions/" opens them.
	type counter struct {
		fd   int
		kind events.Kind
		typ  string
	}
	var counters []counter
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		t := m.TypeOf(cpu)
		for _, id := range []uint64{events.HWInstructions, events.HWCPUCycles,
			events.HWBranchInstructions, events.HWCacheReferences} {
			fd, err := s.Kernel.Open(perfevent.HardwareAttr(t.PMU.PerfType, id), -1, cpu, -1)
			if err != nil {
				return err
			}
			kind, _ := events.GenericKind(id)
			counters = append(counters, counter{fd: fd, kind: kind, typ: t.Name})
		}
	}

	var procs []int
	for _, t := range tasks {
		procs = append(procs, s.Spawn(t, affinity).PID)
	}

	// perf-record style profiling of the first task.
	var sampleFDs []int
	if samplePeriod > 0 && len(procs) > 0 {
		for i := range m.Types {
			attr := perfevent.HardwareAttr(m.Types[i].PMU.PerfType, events.HWInstructions)
			attr.SamplePeriod = samplePeriod
			fd, err := s.Kernel.Open(attr, procs[0], -1, -1)
			if err != nil {
				return err
			}
			sampleFDs = append(sampleFDs, fd)
		}
	}

	if !s.RunUntil(done, seconds+3600) {
		fmt.Fprintln(os.Stderr, "perfstat: workload did not finish; reporting partial counts")
	}

	totals := map[string]map[events.Kind]uint64{}
	for _, c := range counters {
		v, err := s.Kernel.Read(c.fd)
		if err != nil {
			continue
		}
		if totals[c.typ] == nil {
			totals[c.typ] = map[events.Kind]uint64{}
		}
		totals[c.typ][c.kind] += v.Value
	}

	fmt.Printf("perfstat: %s on %s for %.3f simulated seconds\n\n", wl, machineName, s.Now())
	for i := range m.Types {
		name := m.Types[i].Name
		t := totals[name]
		fmt.Printf("%s (%s):\n", name, m.Types[i].PMU.Name)
		fmt.Printf("  %18d instructions\n", t[events.KindInstructions])
		fmt.Printf("  %18d cycles\n", t[events.KindCycles])
		if c := t[events.KindCycles]; c > 0 {
			fmt.Printf("  %18.2f IPC\n", float64(t[events.KindInstructions])/float64(c))
		}
		fmt.Printf("  %18d branches\n", t[events.KindBranches])
		fmt.Printf("  %18d LLC references\n", t[events.KindLLCRefs])
		fmt.Println()
	}
	fmt.Printf("%d syscall-equivalents issued by the measurement\n", s.Kernel.Syscalls())

	if len(sampleFDs) > 0 {
		byCPU := map[int]int{}
		total, lostTotal := 0, uint64(0)
		for _, fd := range sampleFDs {
			samples, lost, err := s.Kernel.ReadSamples(fd)
			if err != nil {
				return err
			}
			lostTotal += lost
			for _, smp := range samples {
				byCPU[smp.CPU]++
				total++
			}
		}
		fmt.Printf("\nprofile of pid %d: %d samples (period %d), %d lost\n",
			procs[0], total, samplePeriod, lostTotal)
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			n := byCPU[cpu]
			if n == 0 {
				continue
			}
			fmt.Printf("  cpu%-3d (%s) %6d samples  %5.1f%%\n",
				cpu, m.TypeOf(cpu).Name, n, 100*float64(n)/float64(total))
		}
	}
	return nil
}
