// Command hetpapiprof is the hybrid-aware statistical profiler front
// end: it records per-core-type sampled profiles of reference scenario
// runs, renders top-N attribution tables split by core type, and diffs
// two profiles' P-vs-E attribution. A recording opens one sampled cycles
// event per core-type PMU for every workload task (a cpu_core event only
// fires on P-cores, so the sample stream itself carries the hybrid
// split), attributes every overflow record to (core type, CPU, workload
// phase, DVFS frequency) and writes a gzipped pprof profile.proto —
// open it with `go tool pprof` — plus, optionally, folded flamegraph
// stacks for flamegraph.pl or speedscope.
//
// Usage:
//
//	hetpapiprof list
//	hetpapiprof record -scenario NAME [-o profile.pb.gz] [-folded out.folded]
//	                   [-period N] [-drain-every N] [-seed N]
//	                   [-max-seconds S] [-top N]
//	hetpapiprof report [-top N] profile.pb.gz
//	hetpapiprof diff old.pb.gz new.pb.gz
//
// record runs the named reference scenario (see list) with the profiler
// attached, prints the attribution report and the profiler's
// self-overhead, and writes the profile. report re-renders a written
// profile, recovering the lost-sample error bound from the file's
// comment metadata. diff compares per-core-type busy shares of two
// profiles — the P-vs-E attribution delta between two runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hetpapi/internal/profile"
	"hetpapi/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hetpapiprof:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: hetpapiprof <list|record|report|diff> [args]")
	}
	switch args[0] {
	case "list":
		return scenario.WriteList(out)
	case "record":
		return cmdRecord(args[1:], out)
	case "report":
		return cmdReport(args[1:], out)
	case "diff":
		return cmdDiff(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want list, record, report or diff)", args[0])
	}
}

func cmdRecord(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	name := fs.String("scenario", "", "reference scenario name (see list)")
	outPath := fs.String("o", "profile.pb.gz", "output pprof file")
	foldedPath := fs.String("folded", "", "also write folded flamegraph stacks here")
	period := fs.Uint64("period", 0, "sampling period in cycles (0 = default)")
	drainEvery := fs.Int("drain-every", 0, "ring drain cadence in ticks (0 = default)")
	seed := fs.Int64("seed", -1, "override the scenario seed (-1 = spec default)")
	maxSec := fs.Float64("max-seconds", 0, "override the simulated run length (0 = spec default)")
	topN := fs.Int("top", 5, "rows per core type in the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("missing -scenario (see hetpapiprof list)")
	}
	spec, err := scenario.Lookup(*name)
	if err != nil {
		return err
	}
	if *seed >= 0 {
		spec.Seed = *seed
	}
	if *maxSec > 0 {
		spec.MaxSeconds = *maxSec
	}

	col := profile.NewCollector(nil, profile.Config{Period: *period, DrainEveryTicks: *drainEvery})
	spec.StepHooks = append(spec.StepHooks, col.Hook())
	res, err := scenario.Run(spec)
	if err != nil {
		return fmt.Errorf("running %s: %w", spec.Name, err)
	}
	prof := col.Finish()

	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	if err := profile.WritePprof(f, prof); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", *outPath, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if *foldedPath != "" {
		ff, err := os.Create(*foldedPath)
		if err != nil {
			return err
		}
		if err := profile.WriteFolded(ff, prof); err != nil {
			ff.Close()
			return fmt.Errorf("writing %s: %w", *foldedPath, err)
		}
		if err := ff.Close(); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "profiled %s on %s: %.1fs simulated, completed=%v\n",
		res.Name, res.MachineName, res.ElapsedSec, res.Completed)
	fmt.Fprintf(out, "wrote %s: %d samples retained, %d lost\n", *outPath, prof.Emitted, prof.Lost)
	if *foldedPath != "" {
		fmt.Fprintf(out, "wrote %s: %d folded stacks\n", *foldedPath, len(prof.Buckets))
	}
	fmt.Fprintln(out)
	writeReport(out, prof, *topN)
	fmt.Fprintln(out)
	fmt.Fprintln(out, col.Overhead().String())
	return nil
}

func cmdReport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	topN := fs.Int("top", 5, "rows per core type")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: hetpapiprof report [-top N] <profile.pb.gz>")
	}
	prof, err := loadProfile(fs.Arg(0))
	if err != nil {
		return err
	}
	writeReport(out, prof, *topN)
	return nil
}

func cmdDiff(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: hetpapiprof diff <old.pb.gz> <new.pb.gz>")
	}
	a, err := loadProfile(args[0])
	if err != nil {
		return err
	}
	b, err := loadProfile(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "diff %s -> %s\n", args[0], args[1])
	sa, sb := a.Shares(), b.Shares()
	types := map[string]bool{}
	for ct := range sa {
		types[ct] = true
	}
	for ct := range sb {
		types[ct] = true
	}
	names := make([]string, 0, len(types))
	for ct := range types {
		names = append(names, ct)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-12s %8s %8s %8s\n", "core type", "old", "new", "delta")
	for _, ct := range names {
		fmt.Fprintf(out, "%-12s %7.1f%% %7.1f%% %+7.1f%%\n",
			ct, sa[ct]*100, sb[ct]*100, (sb[ct]-sa[ct])*100)
	}
	fmt.Fprintf(out, "samples: %d -> %d (lost %d -> %d)\n", a.Emitted, b.Emitted, a.Lost, b.Lost)
	fmt.Fprintf(out, "combined error bound: %.4f\n", a.ErrorBound()+b.ErrorBound())
	return nil
}

// writeReport renders the attribution tables: busy shares per core type,
// then the top-N buckets of each core type.
func writeReport(out io.Writer, p *profile.Profile, topN int) {
	fmt.Fprintf(out, "profile: %d samples over %.2fs (period %d %s), %d lost, error bound %.4f\n",
		p.Emitted, p.DurationSec, p.Period, p.Event, p.Lost, p.ErrorBound())
	if !p.Complete() {
		fmt.Fprintf(out, "WARNING: no sampled event on: %v (partial profile)\n", p.MissingPMUs)
	}
	shares := p.Shares()
	for _, ct := range p.CoreTypes() {
		fmt.Fprintf(out, "\n%s: %.1f%% of busy time\n", ct, shares[ct]*100)
		fmt.Fprintf(out, "  %-16s %5s %8s %14s %12s\n", "phase", "cpu", "samples", p.Event, "busy")
		for _, r := range p.Top(topN, ct) {
			phase := r.Phase
			if phase == "" {
				phase = "-"
			}
			fmt.Fprintf(out, "  %-16s %5d %8d %14.0f %10.3fms\n",
				phase, r.CPU, r.Samples, r.Weight, r.BusySec*1e3)
		}
	}
}

func loadProfile(path string) (*profile.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := profile.DecodePprof(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := profile.FromDecoded(d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
