// Package exp contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation, shared by the cmd/ tools. Each
// paper cell runs once: RaptorLake runs the six Table II cells under the
// paper's settle-and-average protocol (AverageHPL) and OrangePi the five
// Figure 4 configurations, and every Raptor Lake and OrangePi table or
// figure is a view of one of those two results. The runs use the paper's
// measurement methodology (1 Hz sysfs polling, perf-style system-wide
// counters, PAPI EventSets for the hybrid test), and every result renders
// in the paper's layout.
package exp

import (
	"fmt"
	"strings"
	"sync"

	"hetpapi/internal/hw"
	"hetpapi/internal/scenario"
	"hetpapi/internal/sim"
	"hetpapi/internal/trace"
	"hetpapi/internal/workload"
)

// Config scales the experiments. Default() reproduces the paper's
// parameters; tests shrink N to keep runtimes small.
type Config struct {
	// N and NB are the Raptor Lake HPL.dat parameters (paper: 57024/192).
	N  int
	NB int
	// ArmN and ArmNB size the OrangePi runs.
	ArmN  int
	ArmNB int
	// Runs is how many runs are averaged per cell (paper: 10).
	Runs int
	// SettleTempC is the between-runs thermal settle target (paper: 35).
	SettleTempC float64
	// Reps and InstrPerRep parameterize the papi_hybrid test
	// (paper: 100 x 1M).
	Reps        int
	InstrPerRep float64
	// Seed is the base RNG seed; run r of a cell uses Seed + r.
	Seed int64
}

// Default returns the paper's experimental parameters, with Runs reduced
// from 10 to 3 (the simulator is deterministic per seed, so additional
// runs only average scheduler noise).
func Default() Config {
	return Config{
		N: 57024, NB: 192,
		ArmN: 16384, ArmNB: 128,
		Runs:        3,
		SettleTempC: 35,
		Reps:        100,
		InstrPerRep: 1e6,
		Seed:        2028,
	}
}

// Quick returns a scaled-down configuration for tests: the same machines
// and mechanisms on a small problem.
func Quick() Config {
	return Config{
		N: 9600, NB: 192,
		ArmN: 12288, ArmNB: 128,
		Runs:        1,
		SettleTempC: 35,
		Reps:        100,
		InstrPerRep: 1e6,
		Seed:        7,
	}
}

// CoreSelection names the "Enabled cores" rows of Table II.
type CoreSelection string

// The three Raptor Lake core selections.
const (
	EOnly CoreSelection = "E only"
	POnly CoreSelection = "P only"
	PAndE CoreSelection = "P and E"
)

// cpusFor returns the pinned CPU list of a selection (one thread per
// physical core, as the paper configures HPL).
func cpusFor(m *hw.Machine, sel CoreSelection) []int {
	switch sel {
	case EOnly:
		return m.CPUsOfType("E-core")
	case POnly:
		var out []int
		for _, c := range m.CPUsOfType("P-core") {
			if m.CPUs[c].SMTIndex == 0 {
				out = append(out, c)
			}
		}
		return out
	default:
		return m.FirstCPUPerCore()
	}
}

// HPLRun is one measured HPL execution.
type HPLRun struct {
	// Gflops is the benchmark figure of merit.
	Gflops float64
	// ElapsedSec is the run duration in simulated seconds.
	ElapsedSec float64
	// Samples is the 1 Hz monitoring trace.
	Samples []trace.Sample
	// ByType holds perf-style system-wide counters per core type name.
	ByType map[string]scenario.TypeCounters
	// EnergyJ is the total package energy of the run (RAPL machines).
	EnergyJ float64
}

// RunHPL executes one monitored HPL run on a fresh machine.
func RunHPL(m *hw.Machine, strategy workload.Strategy, cpus []int, n, nb int, seed int64) (HPLRun, error) {
	simCfg := sim.DefaultConfig()
	simCfg.Sched.Seed = seed
	s := sim.New(m, simCfg)
	return runHPLOn(s, strategy, cpus, n, nb, seed)
}

// runHPLOn executes one monitored HPL run on an already-booted machine
// (which may be warm from a previous run), through the scenario harness:
// the paper's 1 Hz monitoring and system-wide counters, with the full
// standard invariant set audited on every tick.
func runHPLOn(s *sim.Machine, strategy workload.Strategy, cpus []int, n, nb int, seed int64) (HPLRun, error) {
	res, err := scenario.RunOn(s, scenario.Spec{
		Name:            fmt.Sprintf("hpl-n%d", n),
		SamplePeriodSec: 1.0,
		MaxSeconds:      4 * 3600,
		Workloads: []scenario.WorkloadSpec{{
			Kind: scenario.WorkloadHPL, Name: "hpl", CPUs: cpus,
			N: n, NB: nb, Strategy: strategy, Seed: seed,
		}},
	})
	if err != nil {
		return HPLRun{}, err
	}
	if !res.Completed {
		return HPLRun{}, fmt.Errorf("exp: HPL(N=%d) did not finish in 4 simulated hours", n)
	}
	return HPLRun{
		Gflops:     res.Workloads[0].Gflops,
		ElapsedSec: res.Workloads[0].ElapsedSec,
		Samples:    res.Samples,
		ByType:     res.ByType,
		EnergyJ:    res.EnergyJ,
	}, nil
}

// AverageHPL runs HPL at cfg.N and cfg.NB, pinned to cpus, cfg.Runs times
// with distinct seeds on ONE machine built from m, waiting between runs for
// the package to settle at cfg.SettleTempC — the paper's data-collection
// protocol ("waiting for the CPU package temperature to settle at 35 degC
// before each run"). It returns the run with averaged scalars, counters
// and trace, and the individual runs in order.
func AverageHPL(cfg Config, m *hw.Machine, strategy workload.Strategy, cpus []int) (HPLRun, []HPLRun, error) {
	simCfg := sim.DefaultConfig()
	simCfg.Sched.Seed = cfg.Seed
	s := sim.New(m, simCfg)
	settle := cfg.SettleTempC
	if settle <= 0 {
		settle = 35
	}
	var runs []HPLRun
	var traces [][]trace.Sample
	for r := range max(1, cfg.Runs) {
		if r > 0 {
			s.Settle(settle)
		}
		run, err := runHPLOn(s, strategy, cpus, cfg.N, cfg.NB, cfg.Seed+int64(r))
		if err != nil {
			return HPLRun{}, nil, err
		}
		runs = append(runs, run)
		traces = append(traces, run.Samples)
	}
	avg := HPLRun{
		Samples: trace.AverageRuns(traces),
		ByType:  map[string]scenario.TypeCounters{},
	}
	for _, r := range runs {
		avg.Gflops += r.Gflops
		avg.ElapsedSec += r.ElapsedSec
		avg.EnergyJ += r.EnergyJ
		for name, tc := range r.ByType {
			cur := avg.ByType[name]
			cur.Instructions += tc.Instructions
			cur.Cycles += tc.Cycles
			cur.LLCRefs += tc.LLCRefs
			cur.LLCMisses += tc.LLCMisses
			avg.ByType[name] = cur
		}
	}
	n := float64(len(runs))
	avg.Gflops /= n
	avg.ElapsedSec /= n
	avg.EnergyJ /= n
	for name, tc := range avg.ByType {
		tc.Instructions /= n
		tc.Cycles /= n
		tc.LLCRefs /= n
		tc.LLCMisses /= n
		avg.ByType[name] = tc
	}
	return avg, runs, nil
}

// parallel runs fn(0) … fn(n-1) in one goroutine each, waits for all of
// them and returns the error of the lowest index that failed. The
// experiments' cells are independent simulated machines, each
// deterministic on its own, so a result is the same as a serial run's.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// table renders rows of columns with padding, for paper-style output.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteString("\n")
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
