// Command hetpapifleet generates and runs a simulated fleet from one
// seed and writes the roll-up report: expand a weighted template mix
// into N machines (per-machine derived scheduler seeds, staggered
// cold-starts, optional seed-derived chaos fault plans), run every
// machine's simulation to completion on a bounded worker pool, and
// aggregate per-core-type counters, energy, degradation tallies and the
// incident ledger across the whole population.
//
// Usage:
//
//	hetpapifleet [-n 1000] [-seed 1] [-stagger 0.5]
//	             [-chaos 0.25] [-chaos-max-events 8]
//	             [-workers 0] [-max-seconds S]
//	             [-templates name,name,...] [-o report.json]
//	             [-stream] [-stream-period S] [-anomaly-threshold 4.0]
//	             [-results] [-quiet]
//	hetpapifleet -list-templates
//
// The report JSON is a pure function of (-n, -seed, template mix,
// -stagger, -chaos, -stream): rerunning with the same flags reproduces
// it byte-for-byte at any worker count. -o - (the default) writes the
// report to stdout; the human summary goes to stderr unless -quiet.
// -results includes the per-machine outcome array in the report;
// without it only the fleet roll-up is written. -templates restricts
// the built-in mix (see -list-templates) to the named templates,
// keeping their relative weights.
//
// -stream hooks every machine with the telemetry streamer: machine
// scalars, per-core-type counter totals and degradation tallies flow
// into an in-process store (downsampled into 1s/10s/1m rungs at
// ingest), the robust z-score anomaly detector scores each template
// population and embeds outliers in the report, and the streamer's
// self-measured ingest cost is printed to stderr. -stream-period
// overrides the per-template sampling cadence in simulated seconds;
// -anomaly-threshold tunes the outlier score (0 disables detection).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hetpapi/internal/fleet"
	"hetpapi/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hetpapifleet:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("hetpapifleet", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		n         = fs.Int("n", 1000, "fleet size (machines)")
		seed      = fs.Int64("seed", 1, "fleet seed")
		stagger   = fs.Float64("stagger", 0.5, "cold-start stagger window (simulated seconds)")
		chaos     = fs.Float64("chaos", 0.25, "fraction of machines that draw a chaos fault plan (0 disables)")
		chaosMax  = fs.Int("chaos-max-events", 0, "max fault events per chaos plan (0 = default)")
		workers   = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		maxSec    = fs.Float64("max-seconds", 0, "override every template's simulated run bound (0 = keep)")
		templates = fs.String("templates", "", "comma-separated subset of the built-in templates (empty = all)")
		outPath   = fs.String("o", "-", "report output path (- = stdout)")
		results   = fs.Bool("results", false, "include the per-machine results array in the report")
		quiet     = fs.Bool("quiet", false, "suppress the progress and summary output on stderr")
		list      = fs.Bool("list-templates", false, "list the built-in templates and exit")
		stream    = fs.Bool("stream", false, "stream every machine's series into an in-process telemetry store (enables anomaly detection)")
		period    = fs.Float64("stream-period", 0, "streaming sample period in simulated seconds (0 = per-template cadence)")
		anomaly   = fs.Float64("anomaly-threshold", 4.0, "robust z-score threshold for flagging outlier machines (0 disables; needs -stream)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, t := range fleet.DefaultTemplates() {
			fmt.Fprintf(out, "%-20s weight=%d machine=%s workloads=%d\n",
				t.Name, t.Weight, t.Spec.Machine, len(t.Spec.Workloads))
		}
		return nil
	}

	gen := fleet.GenConfig{
		Machines:           *n,
		Seed:               *seed,
		StaggerSec:         *stagger,
		MaxSecondsOverride: *maxSec,
	}
	if *templates != "" {
		picked, err := pickTemplates(*templates)
		if err != nil {
			return err
		}
		gen.Templates = picked
	}
	if *chaos > 0 {
		gen.Chaos = &fleet.ChaosConfig{IncidentRate: *chaos, MaxEvents: *chaosMax}
	}
	f, err := fleet.Generate(gen)
	if err != nil {
		return err
	}

	rc := fleet.RunConfig{Workers: *workers}
	if *stream {
		// The CLI's store is in-process only: it feeds the anomaly
		// detector and the self-overhead accounting. Modest capacities
		// keep a 1,000-machine run's footprint bounded; the rungs carry
		// the history population queries would use.
		store := telemetry.NewStore(telemetry.Config{Capacity: 512, RungCapacity: 512})
		rc.Streamer = telemetry.NewStreamer(store, *period)
		if *anomaly > 0 {
			rc.Anomaly = &fleet.AnomalyConfig{Threshold: *anomaly}
		}
	}
	done := 0
	if !*quiet {
		rc.OnMachine = func(fleet.MachineResult) {
			done++
			if done%100 == 0 || done == len(f.Machines) {
				fmt.Fprintf(errw, "hetpapifleet: %d/%d machines done\n", done, len(f.Machines))
			}
		}
	}
	start := time.Now()
	rep, err := fleet.Run(ctx, f, rc)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	if !*quiet {
		fmt.Fprint(errw, rep.Summary())
		fmt.Fprintf(errw, "  wall=%.2fs throughput=%.0f machine-sim-s/wall-s\n",
			wall, rep.MachineSimSec/wall)
		if rc.Streamer != nil {
			o := rc.Streamer.SelfOverhead()
			fmt.Fprintf(errw, "  streaming self-overhead: %d points in %.1fms (%.0f ns/point, %.1f%% of wall)\n",
				o.Points, o.IngestSec*1e3, o.NsPerPoint, 100*o.IngestSec/wall)
		}
	}
	if rc.Streamer != nil {
		rc.Streamer.ExportOverhead(0)
	}

	if !*results {
		rep = rep.Compact()
	}
	w := out
	if *outPath != "-" {
		file, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	return rep.WriteJSON(w)
}

// pickTemplates restricts the built-in mix to the named templates.
func pickTemplates(names string) ([]fleet.Template, error) {
	all := fleet.DefaultTemplates()
	byName := map[string]fleet.Template{}
	known := make([]string, 0, len(all))
	for _, t := range all {
		byName[t.Name] = t
		known = append(known, t.Name)
	}
	var out []fleet.Template
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		t, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown template %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no templates selected")
	}
	return out, nil
}
