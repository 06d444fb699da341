// Command hetpapivalidate is the counter-accuracy validation front end:
// it runs micro-workloads whose event counts are known in closed form
// through the full measurement stack and scores what the PAPI layer
// reports against the oracles — per event, per core type, per machine
// model, clean and under multiplexing, fault plans and profiler
// sampling. It also drives the model-calibration loop, which fits a
// perturbed machine model back to published targets.
//
// Usage:
//
//	hetpapivalidate run [-model NAME|all] [-json] [-max-rel-err F]
//	hetpapivalidate scorecard [-model NAME|all] [-o DIR]
//	hetpapivalidate calibrate [-model NAME] [-seed N] [-tol F] [-json]
//	hetpapivalidate diff OLD.json NEW.json
//
// run executes the full oracle suite and prints the accuracy scorecard
// (human table, or the canonical JSON with -json); it exits nonzero if
// any row fails or the worst clean relative error exceeds -max-rel-err.
// scorecard writes the byte-reproducible golden artifact per model — the
// same bytes committed under internal/validate/testdata. calibrate
// perturbs the named model's calibratable parameters, fits them back to
// targets measured on the pristine model, and reports the recovered
// parameters and residual. diff compares two scorecard artifacts row by
// row.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hetpapi/internal/calibration"
	"hetpapi/internal/hw"
	"hetpapi/internal/validate"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hetpapivalidate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: hetpapivalidate <run|scorecard|calibrate|diff> [args]")
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], out)
	case "scorecard":
		return cmdScorecard(args[1:], out)
	case "calibrate":
		return cmdCalibrate(args[1:], out)
	case "diff":
		return cmdDiff(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want run, scorecard, calibrate or diff)", args[0])
	}
}

// sourcesFor resolves -model: a registry name or "all".
func sourcesFor(model string) ([]validate.ModelSource, error) {
	if model == "all" || model == "" {
		return validate.StandardSources(), nil
	}
	src, err := hw.LookupModel(model)
	if err != nil {
		return nil, fmt.Errorf("%w, or \"all\"", err)
	}
	return []validate.ModelSource{src}, nil
}

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	model := fs.String("model", "all", "machine model name, or \"all\"")
	asJSON := fs.Bool("json", false, "emit the canonical JSON scorecard instead of the table")
	maxRel := fs.Float64("max-rel-err", 0, "fail if the worst clean relative error exceeds this (0 = no gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srcs, err := sourcesFor(*model)
	if err != nil {
		return err
	}
	card, err := validate.BuildScorecard(srcs)
	if err != nil {
		return err
	}
	if *asJSON {
		b, err := json.MarshalIndent(card, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", b)
	} else {
		printCard(out, card)
	}
	if !card.AllPass() {
		return fmt.Errorf("%d of %d rows failed", card.Summary.Failed, card.Summary.Rows)
	}
	if *maxRel > 0 && card.MaxCleanRelErr() > *maxRel {
		return fmt.Errorf("max clean relative error %s exceeds gate %g (worst: %s)",
			card.Summary.MaxCleanRel, *maxRel, card.Summary.WorstCleanRow)
	}
	return nil
}

func printCard(out io.Writer, card *validate.Scorecard) {
	fmt.Fprintf(out, "%-14s %-9s %-8s %-7s %-12s %18s %18s %10s %12s %s\n",
		"MODEL", "TYPE", "WORK", "MODE", "EVENT", "EXPECTED", "OBSERVED", "REL_ERR", "BOUND", "PASS")
	for _, r := range card.Rows {
		pass := "ok"
		if !r.Pass {
			pass = "FAIL"
		}
		if r.Degraded {
			pass += " (degraded)"
		}
		fmt.Fprintf(out, "%-14s %-9s %-8s %-7s %-12s %18s %18s %10s %12d %s\n",
			r.Model, r.CoreType, r.Workload, r.Mode, r.Event, r.Expected, r.Observed, r.RelErr, r.Bound, pass)
	}
	fmt.Fprintf(out, "\noverhead (monitored vs bare):\n")
	for _, o := range card.Overhead {
		fmt.Fprintf(out, "  %-14s %-9s ticks %d vs %d, elapsed delta %s s, energy delta %s J\n",
			o.Model, o.CoreType, o.TicksMonitored, o.TicksBare, o.ElapsedDeltaS, o.EnergyDeltaJ)
	}
	fmt.Fprintf(out, "sampling:\n")
	for _, s := range card.Sampling {
		pass := "ok"
		if !s.Pass {
			pass = "FAIL"
		}
		fmt.Fprintf(out, "  %-14s %-9s emitted %d lost %d (max %d) %s\n",
			s.Model, s.CoreType, s.Emitted, s.Lost, s.ExpectedMax, pass)
	}
	fmt.Fprintf(out, "\n%d rows: %d passed, %d failed; worst clean rel err %s (%s)\n",
		card.Summary.Rows, card.Summary.Passed, card.Summary.Failed,
		card.Summary.MaxCleanRel, card.Summary.WorstCleanRow)
	if card.Host != nil {
		fmt.Fprintf(out, "host: %d runs in %.1f ms (%.0f ns/tick monitored, %.0f bare)\n",
			card.Host.Runs, float64(card.Host.TotalNs)/1e6, card.Host.NsPerSimTick, card.Host.BareNsPerTick)
	}
	fmt.Fprintf(out, "digest: %s\n", card.Digest)
}

func cmdScorecard(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scorecard", flag.ContinueOnError)
	model := fs.String("model", "all", "machine model name, or \"all\"")
	dir := fs.String("o", "", "write scorecard_<model>.golden.json artifacts into this directory (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srcs, err := sourcesFor(*model)
	if err != nil {
		return err
	}
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return err
		}
	}
	for _, src := range srcs {
		card, err := validate.BuildScorecard([]validate.ModelSource{src})
		if err != nil {
			return err
		}
		b := card.GoldenBytes()
		if *dir == "" {
			if _, err := out.Write(b); err != nil {
				return err
			}
			continue
		}
		path := filepath.Join(*dir, fmt.Sprintf("scorecard_%s.golden.json", src.Name))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (digest %s)\n", path, card.Digest[:12])
	}
	return nil
}

func cmdCalibrate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	model := fs.String("model", "raptorlake", "machine model to calibrate")
	seed := fs.Int64("seed", 42, "perturbation seed")
	tol := fs.Float64("tol", 0.02, "relative convergence tolerance")
	asJSON := fs.Bool("json", false, "emit the fit report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := hw.LookupModel(*model)
	if err != nil {
		return err
	}
	targets, err := calibration.MeasureTargets(src.Name, src.Make)
	if err != nil {
		return err
	}
	perturbed := calibration.Perturb(src.Make(), *seed)
	rep, err := calibration.Fit(targets, perturbed, calibration.Options{TolRel: *tol})
	if err != nil {
		return err
	}
	if *asJSON {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", b)
	} else {
		for _, tr := range rep.Types {
			fmt.Fprintf(out, "%-10s %d sweeps, residual %.5f\n", tr.TypeName, tr.Iters, tr.Residual)
			fmt.Fprintf(out, "  ipc      %8.4f -> %8.4f\n", tr.Initial.BaseIPC, tr.Fitted.BaseIPC)
			fmt.Fprintf(out, "  penalty  %8.2f -> %8.2f cycles\n", tr.Initial.LLCMissPenaltyCycles, tr.Fitted.LLCMissPenaltyCycles)
			fmt.Fprintf(out, "  hpl eff  %8.4f -> %8.4f\n", tr.Initial.HPLEfficiency, tr.Fitted.HPLEfficiency)
			fmt.Fprintf(out, "  dyn W    %8.2f -> %8.2f\n", tr.Initial.DynWattsAtMax, tr.Fitted.DynWattsAtMax)
		}
		fmt.Fprintf(out, "max residual %.5f, converged %v\n", rep.MaxResidual, rep.Converged)
	}
	if !rep.Converged {
		return fmt.Errorf("calibration did not converge (max residual %.4f > %g)", rep.MaxResidual, *tol)
	}
	return nil
}

func cmdDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: hetpapivalidate diff OLD.json NEW.json")
	}
	old, err := loadCard(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := loadCard(fs.Arg(1))
	if err != nil {
		return err
	}
	// Recompute digests from content — the stored field could be stale
	// or tampered with.
	oldDig, curDig := old.ComputeDigest(), cur.ComputeDigest()
	if oldDig == curDig {
		fmt.Fprintf(out, "identical (digest %s)\n", oldDig[:12])
		return nil
	}
	key := func(r validate.Row) string {
		return fmt.Sprintf("%s/%s/%s/%s/%s", r.Model, r.CoreType, r.Workload, r.Mode, r.Event)
	}
	oldRows := map[string]validate.Row{}
	for _, r := range old.Rows {
		oldRows[key(r)] = r
	}
	changed := 0
	for _, r := range cur.Rows {
		k := key(r)
		o, ok := oldRows[k]
		if !ok {
			fmt.Fprintf(out, "+ %s (new row, pass=%v)\n", k, r.Pass)
			changed++
			continue
		}
		delete(oldRows, k)
		if o.Observed != r.Observed || o.Pass != r.Pass || o.Bound != r.Bound {
			fmt.Fprintf(out, "~ %s: observed %s -> %s, bound %d -> %d, pass %v -> %v\n",
				k, o.Observed, r.Observed, o.Bound, r.Bound, o.Pass, r.Pass)
			changed++
		}
	}
	for k, o := range oldRows {
		fmt.Fprintf(out, "- %s (removed, was pass=%v)\n", k, o.Pass)
		changed++
	}
	fmt.Fprintf(out, "%d rows changed; digest %s -> %s\n", changed, oldDig[:12], curDig[:12])
	fmt.Fprintf(out, "worst clean rel err %s -> %s\n", old.Summary.MaxCleanRel, cur.Summary.MaxCleanRel)
	// Like cmp/diff: differing inputs are a non-zero exit so the command
	// can gate scripts directly.
	return fmt.Errorf("scorecards differ (%d rows)", changed)
}

func loadCard(path string) (*validate.Scorecard, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var card validate.Scorecard
	if err := json.Unmarshal(b, &card); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &card, nil
}
