// Command hetpapitrace records, analyzes and compares cross-layer span
// traces of reference scenario runs. A recording drives one scenario
// with a span recorder attached to the whole machine stack (scheduler
// exec spans and migrations, perf_event syscalls and fault transitions,
// PAPI degradation-ladder events, scenario injections) and writes the
// result as Chrome trace-event / Perfetto JSON — open it directly in
// ui.perfetto.dev or chrome://tracing.
//
// Usage:
//
//	hetpapitrace list
//	hetpapitrace record -scenario NAME [-o trace.json] [-seed N]
//	                    [-max-seconds S] [-capacity N] [-analyze]
//	hetpapitrace analyze trace.json
//	hetpapitrace diff old.json new.json
//
// record runs the named reference scenario (see list) and writes the
// trace; -analyze additionally prints the analyzer report afterwards.
// analyze recomputes the report from a trace file: per-core-type time
// attribution, the migration timeline, syscall latency histograms, the
// run's critical path and the recorder's self-overhead. diff compares
// two reports, for before/after runs of the same scenario.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hetpapi/internal/scenario"
	"hetpapi/internal/spantrace"
	"hetpapi/internal/spantrace/analyze"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hetpapitrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: hetpapitrace <list|record|analyze|diff> [args]")
	}
	switch args[0] {
	case "list":
		return scenario.WriteList(out)
	case "record":
		return cmdRecord(args[1:], out)
	case "analyze":
		return cmdAnalyze(args[1:], out)
	case "diff":
		return cmdDiff(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want list, record, analyze or diff)", args[0])
	}
}

func cmdRecord(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	name := fs.String("scenario", "", "reference scenario name (see list)")
	outPath := fs.String("o", "trace.json", "output trace file")
	seed := fs.Int64("seed", -1, "override the scenario seed (-1 = spec default)")
	maxSec := fs.Float64("max-seconds", 0, "override the simulated run length (0 = spec default)")
	capacity := fs.Int("capacity", spantrace.DefaultTrackCapacity, "per-track ring capacity (events)")
	doAnalyze := fs.Bool("analyze", false, "print the analyzer report after recording")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("missing -scenario (see hetpapitrace list)")
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

	rec := spantrace.New(spantrace.Config{TrackCapacity: *capacity})
	rec.Enable()
	spec.Tracer = rec
	res, err := scenario.Run(spec)
	if err != nil {
		return fmt.Errorf("running %s: %w", spec.Name, err)
	}

	snap := rec.Snapshot()
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	if err := spantrace.WriteJSON(f, snap); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", *outPath, err)
	}
	if err := f.Close(); err != nil {
		return err
	}

	st := rec.Stats()
	fmt.Fprintf(out, "recorded %s on %s: %.1fs simulated, completed=%v\n",
		res.Name, res.MachineName, res.ElapsedSec, res.Completed)
	fmt.Fprintf(out, "wrote %s: %d events retained (%d emitted, %d dropped) on %d tracks\n",
		*outPath, st.Retained, st.Emitted, st.Dropped, st.Tracks)
	if *doAnalyze {
		fmt.Fprintln(out)
		return analyzeFile(*outPath, out)
	}
	return nil
}

func cmdAnalyze(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: hetpapitrace analyze <trace.json>")
	}
	return analyzeFile(args[0], out)
}

func analyzeFile(path string, out io.Writer) error {
	rep, err := loadReport(path)
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, rep.String())
	return err
}

func cmdDiff(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: hetpapitrace diff <old.json> <new.json>")
	}
	a, err := loadReport(args[0])
	if err != nil {
		return err
	}
	b, err := loadReport(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "diff %s -> %s\n", args[0], args[1])
	_, err = io.WriteString(out, analyze.Diff(a, b))
	return err
}

func loadReport(path string) (*analyze.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := analyze.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return analyze.Analyze(t), nil
}
