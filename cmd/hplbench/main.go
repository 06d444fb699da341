// Command hplbench runs the HPL comparison experiments of the paper's
// motivation section on the simulated machines and prints the paper's
// tables and figure summaries.
//
// Usage:
//
//	hplbench [-n N] [-nb NB] [-runs R] [-quick] <experiment>
//
// Experiments:
//
//	table2    Table II: OpenBLAS vs Intel HPL Gflops per core selection
//	table3    Table III: LLC miss rate and instruction share per core type
//	fig12     Figures 1-2: frequency / power / temperature trace summary
//	fig3      Figure 3: OrangePi throttling traces
//	fig4      Figure 4: OrangePi performance as cores are added
//	energy    extension: energy-to-solution and Gflops/W per Table II cell
//	ablations design-choice studies (strategy sweep, turbo budget,
//	          multiplex interval, scheduler placement)
//	all       everything above (except ablations)
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"hetpapi/internal/exp"
)

func main() {
	n := flag.Int("n", 0, "override HPL problem size N (default: paper's 57024)")
	nb := flag.Int("nb", 0, "override HPL block size NB (default: paper's 192)")
	runs := flag.Int("runs", 0, "override runs per cell")
	quick := flag.Bool("quick", false, "use the scaled-down test configuration")
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := exp.Default()
	if *quick {
		cfg = exp.Quick()
	}
	if *n > 0 {
		cfg.N = *n
	}
	if *nb > 0 {
		cfg.NB = *nb
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}

	if err := run(cfg, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "hplbench:", err)
		os.Exit(1)
	}
}

func run(cfg exp.Config, which string) error {
	// Table II, Table III, Figures 1-2 and the energy table are views of
	// one Raptor Lake sweep, Figures 3-4 of one OrangePi sweep: each sweep
	// runs at most once, however many of its views are printed.
	raptorLake := sync.OnceValues(func() (exp.RaptorLakeResult, error) { return exp.RaptorLake(cfg) })
	orangePi := sync.OnceValues(func() (exp.OrangePiResult, error) { return exp.OrangePi(cfg) })
	do := func(name string) error {
		switch name {
		case "table2":
			res, err := raptorLake()
			if err != nil {
				return err
			}
			fmt.Println("Table II: benchmark performance comparison")
			fmt.Print(res.TableII())
		case "table3":
			res, err := raptorLake()
			if err != nil {
				return err
			}
			fmt.Println("Table III: hardware counter measurements for all-core runs")
			fmt.Print(res.TableIII())
		case "fig12":
			res, err := raptorLake()
			if err != nil {
				return err
			}
			fmt.Println("Figures 1-2: all-core run traces (Raptor Lake)")
			fmt.Print(res.Figures1And2())
		case "fig3":
			res, err := orangePi()
			if err != nil {
				return err
			}
			fmt.Println("Figure 3: OrangePi frequency scaling behaviour")
			fmt.Print(res.Figure3())
		case "fig4":
			res, err := orangePi()
			if err != nil {
				return err
			}
			fmt.Println("Figure 4: OrangePi HPL performance as more cores are added")
			fmt.Print(res.Figure4())
		case "energy":
			res, err := raptorLake()
			if err != nil {
				return err
			}
			fmt.Println("Energy to solution (RAPL) per Table II cell")
			fmt.Print(res.EnergyTable())
		case "ablations":
			sweep, err := exp.AblationStrategySweep(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Ablation: threading strategy vs E-core count")
			fmt.Print(sweep)
			turbo, err := exp.AblationTurboBudget(cfg)
			if err != nil {
				return err
			}
			fmt.Println("\nAblation: PL2 turbo budget")
			fmt.Print(turbo)
			mux, err := exp.AblationMuxInterval(cfg)
			if err != nil {
				return err
			}
			fmt.Println("\nAblation: multiplex rotation interval")
			fmt.Print(mux)
			sched, err := exp.AblationSchedulerPreference(cfg)
			if err != nil {
				return err
			}
			fmt.Println("\nAblation: scheduler placement")
			fmt.Print(sched)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Println()
		return nil
	}

	if which == "all" {
		for _, name := range []string{"table2", "table3", "fig12", "fig3", "fig4"} {
			if err := do(name); err != nil {
				return err
			}
		}
		return nil
	}
	return do(which)
}
