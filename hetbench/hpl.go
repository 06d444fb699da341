package main

import (
	"math"
	"slices"
	"time"

	"hetpapi/internal/scenario"
	"hetpapi/internal/sim"
	"hetpapi/internal/stats"
	"hetpapi/internal/workload"
)

// paperGflops is the paper's Table II Intel HPL figure on the P and E
// cores of the Raptor Lake machine: the reference gflops_err_pct is
// measured against.
const paperGflops = 457.38

// hplEvents is the four-event two-PMU probe: one instructions and one
// cycles event on each core type's PMU.
var hplEvents = []string{
	"adl_glc::INST_RETIRED:ANY", "adl_glc::CPU_CLK_UNHALTED:THREAD",
	"adl_grt::INST_RETIRED:ANY", "adl_grt::CPU_CLK_UNHALTED:CORE",
}

// paperHPLSpec is the Table II "P and E" cell: Intel MKL HPL, N=57024,
// NB=192, one thread per physical core, with the two-PMU probe, the
// standard invariants and 1 Hz sampling. The seed drives the scheduler
// perturbation and the per-thread HPL noise.
func paperHPLSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		Name:            "paper-hpl",
		Machine:         "raptorlake",
		Seed:            seed,
		MaxSeconds:      600,
		SamplePeriodSec: 1,
		Workloads: []scenario.WorkloadSpec{{
			Kind:     scenario.WorkloadHPL,
			Name:     "hpl",
			CPUs:     scenario.Machines["raptorlake"]().FirstCPUPerCore(),
			N:        57024,
			NB:       192,
			Strategy: workload.IntelMKL(),
			Seed:     seed,
		}},
		Measure: &scenario.MeasureSpec{Workload: 0, Events: hplEvents},
	}
}

// hplRun is one checked paper-hpl run.
type hplRun struct {
	simSec, wallSec float64
	secMs           []float64 // host ms per simulated second, first excluded
	digest          string
	gflops          float64
	ticks           int64
	failures        int64 // invariant violations + probe read errors
}

// runHPLOnce boots the paper-hpl machine and runs it. instrument, when
// non-nil, may register hooks on the booted machine and rewrite the
// spec; it returns a detach function called after the run.
func runHPLOnce(b *bench, spec scenario.Spec, instrument func(*sim.Machine, scenario.Spec) (scenario.Spec, func())) (hplRun, error) {
	var r hplRun
	t0 := time.Now()
	s, err := scenario.Boot(spec)
	if err != nil {
		return r, err
	}
	t0 = b.span("scenario", "boot", t0)

	// Host time per simulated second: one clock read per 1000 ticks.
	next, last := 1.0, time.Time{}
	removeSec := s.AddStepHook(func(m *sim.Machine) {
		if m.Now() < next {
			return
		}
		now := time.Now()
		if !last.IsZero() {
			r.secMs = append(r.secMs, float64(now.Sub(last).Nanoseconds())/1e6)
		}
		last, next = now, next+1
	})
	var probe *scenario.MeasureState
	spec.StepHooks = append(spec.StepHooks, func(c *scenario.Context) {
		if probe == nil {
			probe = c.Measure
		}
	})
	detach := func() {}
	if instrument != nil {
		spec, detach = instrument(s, spec)
	}
	start := time.Now()
	res, err := scenario.RunOn(s, spec)
	r.wallSec = time.Since(start).Seconds()
	detach()
	removeSec()
	b.span("scenario", "run", t0)
	if res == nil {
		return r, err
	}
	r.simSec = res.ElapsedSec
	r.digest = res.Digest
	r.ticks = int64(math.Round(res.ElapsedSec / s.Tick()))
	r.failures = int64(len(res.Violations))
	if probe != nil {
		r.failures += int64(probe.ReadErrs)
	}
	for _, v := range res.Violations {
		b.fail("paper-hpl violation: %s", v)
	}
	b.check(res.Completed && len(res.Workloads) == 1 && res.Workloads[0].Done,
		"paper-hpl did not complete within %gs", spec.MaxSeconds)
	if len(res.Workloads) == 1 {
		r.gflops = res.Workloads[0].Gflops
	}
	b.check(r.gflops > 0, "paper-hpl reported no Gflops")
	return r, nil
}

// gflopsErrPct is the simulated figure's relative error against the paper.
func gflopsErrPct(g float64) float64 { return math.Abs(g-paperGflops) / paperGflops * 100 }

// checkSame fails the run unless r digests and scores like the first run.
func checkSame(b *bench, first, r hplRun, i int) {
	b.check(r.digest == first.digest, "paper-hpl run %d digest %s differs from run 0 %s",
		i, short(r.digest), short(first.digest))
	b.check(r.gflops == first.gflops, "paper-hpl run %d gflops %.6f differs from run 0 %.6f",
		i, r.gflops, first.gflops)
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// runPaperHPL measures the end-to-end figures over repeated runs of the
// same seeded cell: set-up (spec and boot), the heap peak, and, from the
// host ms each simulated second took at best over the runs (bestOf),
// simulated seconds per host second and the median host ms per
// simulated second.
func runPaperHPL(b *bench) error {
	setup, err := setups(func() error {
		_, err := scenario.Boot(paperHPLSpec(b.cfg.seed))
		return err
	})
	if err != nil {
		return err
	}
	b.set("setup_s", setup)

	heap := startHeapSampler()
	deadline := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	var runs []hplRun
	var rates []float64
	var secMs [][]float64
	// At least three runs, for the repeat check and the best-of.
	for len(runs) < 3 || time.Now().Before(deadline) {
		r, err := runHPLOnce(b, paperHPLSpec(b.cfg.seed), nil)
		if err != nil {
			heap.stopMB()
			return err
		}
		runs = append(runs, r)
		checkSame(b, runs[0], r, len(runs)-1)
		rates = append(rates, r.simSec/r.wallSec)
		secMs = append(secMs, r.secMs)
		b.count(r.ticks, r.failures)
	}
	b.set("heap_peak_mb", heap.stopMB())

	best := bestOf(secMs)
	total := 0.0
	for _, ms := range best {
		total += ms
	}
	b.check(len(best) > 0 && total > 0, "paper-hpl recorded no simulated seconds")
	b.set("throughput", float64(len(best))/(total/1e3))
	b.set("latency_ms", stats.Median(best))
	b.note("host ms per simulated second, best of %d runs: %d seconds, median %.3f, max %.3f",
		len(runs), len(best), stats.Median(best), slices.Max(best))
	g := runs[0].gflops
	b.note("%d runs of %.1f simulated s; sim-s/wall-s per run %.1f; digest %s",
		len(runs), runs[0].simSec, rates, short(runs[0].digest))
	b.note("accuracy: %.2f Gflops vs the paper's %.2f, gflops_err_pct %.3f%%", g, paperGflops, gflopsErrPct(g))
	return nil
}

// tracePaperHPL alternates untraced runs of the cell with runs under
// the tick split for --seconds, then drives the kernel and probe
// directly with the cell's open events. Every run must digest and score
// like the first.
func tracePaperHPL(b *bench) error {
	spec := paperHPLSpec(b.cfg.seed)
	cloneUs := timeClone(spec)
	var boots []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		if _, err := scenario.Boot(spec); err != nil {
			return err
		}
		boots = append(boots, float64(time.Since(t0).Nanoseconds())/1e6)
	}

	split := newTickSplit()
	ac := newAllocCounter()
	var a0, allocs uint64
	instrument := func(s *sim.Machine, sp scenario.Spec) (scenario.Spec, func()) {
		sp, detach := split.attach(s, sp)
		a0, _ = ac.read()
		return sp, func() {
			detach()
			a1, _ := ac.read()
			allocs += a1 - a0
		}
	}
	var first hplRun
	var plainSec, tracedSec []float64
	deadline := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	for len(tracedSec) == 0 || time.Now().Before(deadline) {
		for _, traced := range []bool{false, true} {
			var in func(*sim.Machine, scenario.Spec) (scenario.Spec, func())
			if traced {
				in = instrument
			}
			r, err := runHPLOnce(b, paperHPLSpec(b.cfg.seed), in)
			if err != nil {
				return err
			}
			if first.digest == "" {
				first = r
			}
			checkSame(b, first, r, len(plainSec)+len(tracedSec))
			b.count(r.ticks, r.failures)
			if traced {
				tracedSec = append(tracedSec, r.wallSec)
			} else {
				plainSec = append(plainSec, r.wallSec)
			}
		}
	}
	split.report(b, allocs)

	t0 := time.Now()
	drive, err := driveKernel(spec, 2)
	if err != nil {
		return err
	}
	b.span("perfevent", "drive", t0)
	drive.report(b)

	b.set("fleet.clone_us", cloneUs)
	b.set("scenario.boot_ms", stats.Median(boots))
	b.set("trace.overhead_pct", (stats.Median(tracedSec)/stats.Median(plainSec)-1)*100)
	b.note("%d traced runs, median %.3fs vs %.3fs untraced; digest %s; gflops_err_pct %.3f%%",
		len(tracedSec), stats.Median(tracedSec), stats.Median(plainSec), short(first.digest), gflopsErrPct(first.gflops))
	return nil
}

// timeClone returns the mean cost of one Spec.Clone in microseconds.
func timeClone(spec scenario.Spec) float64 {
	const reps = 1000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		_ = spec.Clone()
	}
	return float64(time.Since(t0).Nanoseconds()) / reps / 1e3
}
