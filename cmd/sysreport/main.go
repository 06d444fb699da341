// Command sysreport dumps the synthetic sysfs/procfs discovery surface of
// a simulated machine and compares every heterogeneous core detection
// strategy from section IV.B of the paper, showing which work and which
// fail on each machine.
//
// Usage:
//
//	sysreport [-machine raptorlake|orangepi800|dimensity9000|homogeneous] [-tree]
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"

	"hetpapi/internal/hw"
	"hetpapi/internal/sim"
	"hetpapi/internal/sysfs"
)

func main() {
	machineFlag := flag.String("machine", "raptorlake", "machine model")
	tree := flag.Bool("tree", false, "dump every file in the synthetic tree")
	flag.Parse()
	if err := run(*machineFlag, *tree); err != nil {
		fmt.Fprintln(os.Stderr, "sysreport:", err)
		os.Exit(1)
	}
}

func run(machineName string, tree bool) error {
	model, err := hw.LookupModel(machineName)
	if err != nil {
		return err
	}
	m := model.Make()
	fsys := sysfs.New(m, sim.New(m, sim.DefaultConfig()))

	fmt.Printf("machine: %s (%s)\n\n", m.Name, m.CPUModel)

	fmt.Println("PMUs found by scanning sys/devices (the perf tool's method):")
	pmus, err := sysfs.DetectPMUs(fsys)
	if err != nil {
		return err
	}
	for _, p := range pmus {
		fmt.Printf("  %-20s type=%-3d cpus=%s\n", p.Name, p.Type, sysfs.FormatCPUList(p.CPUs))
	}
	fmt.Println()

	fmt.Println("detection strategies (section IV.B):")
	type strat struct {
		name string
		fn   func(fs.FS) ([]sysfs.Group, error)
	}
	for _, st := range []strat{
		{"pmu scan", sysfs.DetectByPMU},
		{"cpu_capacity", sysfs.DetectByCapacity},
		{"proc/cpuinfo", sysfs.DetectByCPUInfo},
		{"max frequency", sysfs.DetectByMaxFreq},
	} {
		groups, err := st.fn(fsys)
		if err != nil {
			fmt.Printf("  %-14s: unavailable (%v)\n", st.name, err)
			continue
		}
		fmt.Printf("  %-14s: %d group(s)\n", st.name, len(groups))
		for _, g := range groups {
			fmt.Printf("      %-22s cpus %s\n", g.Key, sysfs.FormatCPUList(g.CPUs))
		}
	}
	fmt.Println()

	fmt.Println("CPUID hybrid leaf (Intel only):")
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		ct, ok := fsys.CPUIDHybrid(cpu)
		if !ok {
			fmt.Println("  not available on this machine")
			break
		}
		if cpu == 0 || cpu == m.NumCPUs()-1 {
			fmt.Printf("  cpu%-3d leaf 0x1A EAX[31:24] = %#02x\n", cpu, ct)
		}
	}
	fmt.Println()

	if tree {
		fmt.Println("synthetic tree:")
		err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			content, _ := fsys.ReadFile(p)
			if len(content) > 60 {
				content = content[:57] + "..."
			}
			fmt.Printf("  /%-60s %s\n", p, content)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
