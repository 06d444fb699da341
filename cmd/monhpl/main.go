// Command monhpl is the Go equivalent of the paper's mon_hpl.py artifact
// (A2): it starts an HPL run on a simulated machine, polls core
// frequencies, the package thermal zone and the RAPL energy counter at a
// fixed rate, waits for the package to settle at a target temperature
// between runs, and emits the averaged trace as CSV on stdout.
//
// Usage:
//
//	monhpl [-machine raptorlake|orangepi800] [-variant openblas|intel]
//	       [-cores LIST] [-n N] [-nb NB] [-n_runs R] [-settle_temp C]
//	       [-hz RATE]
//
// The -cores list uses the kernel cpulist syntax the real tool takes, e.g.
// "0,2,4,6,8,10,12,14,16-23".
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"hetpapi/internal/exp"
	"hetpapi/internal/hw"
	"hetpapi/internal/stats"
	"hetpapi/internal/sysfs"
	"hetpapi/internal/trace"
	"hetpapi/internal/workload"
)

func main() {
	machineFlag := flag.String("machine", "raptorlake", "machine model")
	variant := flag.String("variant", "openblas", "HPL build: openblas or intel")
	coresFlag := flag.String("cores", "", "cpulist of CPUs to pin HPL threads to (default: one per core)")
	n := flag.Int("n", 0, "HPL problem size (default: paper value for the machine)")
	nb := flag.Int("nb", 0, "HPL block size (default: paper value)")
	nRuns := flag.Int("n_runs", 1, "number of runs to average")
	settle := flag.Float64("settle_temp", 35, "settle temperature between runs (degC)")
	hz := flag.Float64("hz", 1, "polling rate")
	seed := flag.Int64("seed", 2028, "base RNG seed")
	flag.Parse()

	if err := run(*machineFlag, *variant, *coresFlag, *n, *nb, *nRuns, *settle, *hz, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "monhpl:", err)
		os.Exit(1)
	}
}

func run(machineName, variant, coresFlag string, n, nb, nRuns int, settle, hz float64, seed int64) error {
	if hz <= 0 || hz > 1 {
		return fmt.Errorf("-hz %g out of range (0, 1]: the recorder polls at 1 Hz and can only thin its samples", hz)
	}
	if period := 1 / hz; math.Abs(period-math.Round(period)) > 1e-9 {
		return fmt.Errorf("-hz %g: the recorder polls at 1 Hz and keeps every k-th sample, so the rate must be 1, 1/2, 1/3, and so on", hz)
	}
	model, err := hw.LookupModel(machineName)
	if err != nil {
		return err
	}
	strat, defN, defNB, err := hplBuild(machineName, variant)
	if err != nil {
		return err
	}
	m := model.Make()
	if n == 0 {
		n = defN
	}
	if nb == 0 {
		nb = defNB
	}
	cpus := m.FirstCPUPerCore()
	if coresFlag != "" {
		cpus, err = sysfs.ParseCPUList(coresFlag)
		if err != nil {
			return err
		}
		for _, c := range cpus {
			if c >= m.NumCPUs() {
				return fmt.Errorf("cpu %d out of range (machine has %d)", c, m.NumCPUs())
			}
		}
	}

	fmt.Fprintf(os.Stderr, "monhpl: %s, %s, N=%d NB=%d, %d thread(s) on cpus %s, %d run(s), settle %.0f degC\n",
		machineName, strat.Name, n, nb, len(cpus), sysfs.FormatCPUList(cpus), nRuns, settle)

	cfg := exp.Config{N: n, NB: nb, Runs: nRuns, SettleTempC: settle, Seed: seed}
	avg, runs, err := exp.AverageHPL(cfg, m, strat, cpus)
	if err != nil {
		return err
	}
	var gflops []float64
	for r, res := range runs {
		gflops = append(gflops, res.Gflops)
		fmt.Fprintf(os.Stderr, "monhpl: run %d: %.2f Gflops in %.1f s\n", r+1, res.Gflops, res.ElapsedSec)
	}

	if err := trace.WriteCSV(os.Stdout, m.NumCPUs(), resample(avg.Samples, hz)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "monhpl: mean %.2f Gflops (stddev %.2f) over %d run(s)\n",
		stats.Mean(gflops), stats.Stddev(gflops), len(runs))
	return nil
}

// hplBuild picks the HPL build the paper ran on a machine model, with
// its default problem and block sizes.
func hplBuild(machineName, variant string) (workload.Strategy, int, int, error) {
	switch machineName {
	case "raptorlake":
		switch variant {
		case "openblas":
			return workload.OpenBLASx86(), 57024, 192, nil
		case "intel":
			return workload.IntelMKL(), 57024, 192, nil
		}
		return workload.Strategy{}, 0, 0, fmt.Errorf("unknown variant %q", variant)
	case "orangepi800":
		if variant != "openblas" {
			return workload.Strategy{}, 0, 0, fmt.Errorf("the OrangePi only has the OpenBLAS build")
		}
		return workload.OpenBLASArm(), 16384, 128, nil
	}
	return workload.Strategy{}, 0, 0, fmt.Errorf("no HPL build for machine %q (have raptorlake, orangepi800)", machineName)
}

// resample keeps every k-th sample for a polling rate of 1/k Hz (the
// recorder itself polls at 1 Hz; run rejects other rates). Thinning the
// averaged trace equals averaging the thinned runs: both keep the same
// sample indices.
func resample(samples []trace.Sample, hz float64) []trace.Sample {
	if hz >= 1 || hz <= 0 {
		return samples
	}
	stride := int(math.Round(1 / hz))
	var out []trace.Sample
	for i := 0; i < len(samples); i += stride {
		out = append(out, samples[i])
	}
	return out
}
