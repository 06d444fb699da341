package validate

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"hetpapi/internal/hw"
)

// SchemaVersion identifies the scorecard JSON layout. Bump on any field
// or formatting change: goldens are byte-compared.
const SchemaVersion = 1

// Row scores one event of one case under one mode. Float quantities are
// fixed-precision strings so the JSON rendering is byte-reproducible
// across platforms (the same convention as scenario.Golden).
type Row struct {
	Model    string `json:"model"`
	CoreType string `json:"core_type"`
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Event    string `json:"event"`
	// Expected is the closed-form oracle value; Observed what the stack
	// reported (the counter Final, or the integrated package energy).
	Expected string `json:"expected"`
	Observed string `json:"observed"`
	// RelErr is (observed-expected)/expected.
	RelErr string `json:"rel_err"`
	// Bound is the reported worst-case absolute error (counter
	// ErrorBound); zero in clean runs.
	Bound uint64 `json:"bound"`
	// Tolerance is the pass threshold: relative in clean/sampled modes,
	// ignored in bounded (mux/faults) modes where Bound governs.
	Tolerance string `json:"tolerance"`
	// WithinBound reports |observed-expected| <= Bound + slack (bounded
	// modes; always true in clean modes where exactness is checked).
	WithinBound bool `json:"within_bound"`
	Pass        bool `json:"pass"`
	Degraded    bool `json:"degraded,omitempty"`
}

// OverheadRow is the monitored-vs-bare comparison for one case: the
// measurement stack's simulated cost (the RAPL-overhead question). The
// simulator's counting substrate is free by construction, so nonzero
// deltas expose an observer effect.
type OverheadRow struct {
	Model          string `json:"model"`
	CoreType       string `json:"core_type"`
	Workload       string `json:"workload"`
	TicksMonitored int    `json:"ticks_monitored"`
	TicksBare      int    `json:"ticks_bare"`
	ElapsedDeltaS  string `json:"elapsed_delta_s"`
	EnergyDeltaJ   string `json:"energy_delta_j"`
	EnergyBareJ    string `json:"energy_bare_j"`
}

// SamplingRow is the profiler's lost-sample ledger for one sampled run.
type SamplingRow struct {
	Model    string `json:"model"`
	CoreType string `json:"core_type"`
	Emitted  uint64 `json:"emitted"`
	Lost     uint64 `json:"lost"`
	// ExpectedMax is the sampling-period upper bound on emitted+lost:
	// task cycles / period, plus one for the partial period in flight.
	ExpectedMax uint64 `json:"expected_max"`
	Pass        bool   `json:"pass"`
}

// Summary aggregates the card.
type Summary struct {
	Rows          int    `json:"rows"`
	Passed        int    `json:"passed"`
	Failed        int    `json:"failed"`
	MaxCleanRel   string `json:"max_clean_rel_err"`
	WorstCleanRow string `json:"worst_clean_row,omitempty"`
}

// HostReport carries host wall-clock costs. Never reproducible across
// machines: excluded from the digest and stripped before goldens.
type HostReport struct {
	TotalNs       int64   `json:"total_ns"`
	Runs          int     `json:"runs"`
	NsPerSimTick  float64 `json:"ns_per_sim_tick"`
	BareNsPerTick float64 `json:"bare_ns_per_sim_tick"`
}

// Scorecard is the full accuracy report for a set of machine models.
type Scorecard struct {
	Schema   int           `json:"schema"`
	Models   []string      `json:"models"`
	Rows     []Row         `json:"rows"`
	Overhead []OverheadRow `json:"overhead"`
	Sampling []SamplingRow `json:"sampling"`
	Summary  Summary       `json:"summary"`
	// Digest chains everything above: sha256 of the rendering with
	// Digest empty and Host absent.
	Digest string      `json:"digest"`
	Host   *HostReport `json:"host,omitempty"`
}

// ModelSource names a machine model and its constructor.
type ModelSource = hw.Model

// StandardSources lists every machine model of hw.Models, in its fixed
// order. The committed golden scorecards cover exactly this set, one
// artifact per model.
func StandardSources() []ModelSource {
	return append([]ModelSource(nil), hw.Models...)
}

// fnum renders a float at the card's fixed precision.
func fnum(v float64) string { return fmt.Sprintf("%.6f", v) }

// fexp renders a relative error or tolerance.
func fexp(v float64) string { return fmt.Sprintf("%.3e", v) }

// Tolerance returns the clean-mode relative tolerance for an event: the
// counter path must be exact up to integer truncation; the energy
// integral is continuous and allowed scheduling-boundary residue.
func Tolerance(event string) float64 {
	if event == EvEnergyJ {
		return 1e-3
	}
	return 1e-6
}

// boundSlack is the absolute slack added to reported error bounds in
// bounded modes, covering integer truncation of scaled estimates.
func boundSlack(expected float64) float64 {
	s := 1e-6 * expected
	if s < 2 {
		s = 2
	}
	return s
}

// scoreRow folds one (case, mode, event) measurement into a Row.
func scoreRow(c *Case, mode Mode, event string, expected float64, res *RunResult) Row {
	var observed float64
	var bound uint64
	var degraded bool
	if event == EvEnergyJ {
		observed = res.EnergyJ
	} else {
		o := res.Events[event]
		observed = float64(o.Final)
		bound = o.Bound
		degraded = o.Degraded
	}
	rel := 0.0
	if expected != 0 {
		rel = (observed - expected) / expected
	}
	tol := Tolerance(event)
	absErr := math.Abs(observed - expected)
	withinBound := absErr <= float64(bound)+boundSlack(expected)
	var pass bool
	switch mode {
	case ModeMux, ModeFaults:
		pass = withinBound
	default:
		pass = math.Abs(rel) <= tol
		withinBound = pass
	}
	return Row{
		Model:       c.Model,
		CoreType:    c.Type().Name,
		Workload:    c.Workload,
		Mode:        string(mode),
		Event:       event,
		Expected:    fnum(expected),
		Observed:    fnum(observed),
		RelErr:      fexp(rel),
		Bound:       bound,
		Tolerance:   fexp(tol),
		WithinBound: withinBound,
		Pass:        pass,
		Degraded:    degraded,
	}
}

// eventOrder fixes row order within a case.
var eventOrder = []string{EvInstructions, EvCycles, EvLLCRefs, EvLLCMisses, EvEnergyJ}

// BuildScorecard runs the full oracle suite for every source model and
// assembles the scorecard. Deterministic: same sources, same bytes
// (excluding Host, which the caller may attach for display).
func BuildScorecard(sources []ModelSource) (*Scorecard, error) {
	card := &Scorecard{Schema: SchemaVersion}
	var totalNs, bareNs int64
	var totalTicks, bareTicks, runs int
	for _, src := range sources {
		card.Models = append(card.Models, src.Name)
		m := src.Make()
		for _, c := range Cases(src.Name, m) {
			c := c
			exp := c.Expected()
			for _, mode := range Modes(c.Workload) {
				res, err := Run(&c, mode)
				if err != nil {
					return nil, err
				}
				runs++
				totalNs += res.HostNs
				totalTicks += res.Ticks
				for _, ev := range eventOrder {
					want, ok := exp[ev]
					if !ok {
						continue
					}
					card.Rows = append(card.Rows, scoreRow(&c, mode, ev, want, res))
				}
				if mode == ModeSampled {
					card.Sampling = append(card.Sampling, samplingRow(&c, exp, res))
				}
				if mode == ModeClean && c.Workload == WorkLoop {
					bare, err := RunBare(&c)
					if err != nil {
						return nil, err
					}
					bareNs += bare.HostNs
					bareTicks += bare.Ticks
					card.Overhead = append(card.Overhead, OverheadRow{
						Model:          c.Model,
						CoreType:       c.Type().Name,
						Workload:       c.Workload,
						TicksMonitored: res.Ticks,
						TicksBare:      bare.Ticks,
						ElapsedDeltaS:  fnum(res.ElapsedSec - bare.ElapsedSec),
						EnergyDeltaJ:   fnum(res.EnergyJ - bare.EnergyJ),
						EnergyBareJ:    fnum(bare.EnergyJ),
					})
				}
			}
		}
	}
	card.Summary = summarize(card.Rows)
	card.Digest = card.ComputeDigest()
	card.Host = &HostReport{TotalNs: totalNs + bareNs, Runs: runs}
	if totalTicks > 0 {
		card.Host.NsPerSimTick = float64(totalNs) / float64(totalTicks)
	}
	if bareTicks > 0 {
		card.Host.BareNsPerTick = float64(bareNs) / float64(bareTicks)
	}
	return card, nil
}

// samplingRow checks the profiler's sample accounting for a sampled run:
// emitted+lost cannot exceed the cycle budget divided by the period.
func samplingRow(c *Case, exp map[string]float64, res *RunResult) SamplingRow {
	const period = 2e6 // profile.Config default sampling period, cycles
	maxSamples := uint64(exp[EvCycles]/period) + 1
	got := res.EmittedSamples + res.LostSamples
	return SamplingRow{
		Model:       c.Model,
		CoreType:    c.Type().Name,
		Emitted:     res.EmittedSamples,
		Lost:        res.LostSamples,
		ExpectedMax: maxSamples,
		Pass:        got <= maxSamples && res.EmittedSamples > 0,
	}
}

func summarize(rows []Row) Summary {
	s := Summary{Rows: len(rows)}
	worst := -1.0
	for _, r := range rows {
		if r.Pass {
			s.Passed++
		} else {
			s.Failed++
		}
		if r.Mode == string(ModeClean) || r.Mode == string(ModeSampled) {
			var rel float64
			fmt.Sscanf(r.RelErr, "%e", &rel)
			if a := math.Abs(rel); a > worst {
				worst = a
				s.MaxCleanRel = fexp(a)
				s.WorstCleanRow = fmt.Sprintf("%s/%s/%s/%s/%s", r.Model, r.CoreType, r.Workload, r.Mode, r.Event)
			}
		}
	}
	if worst < 0 {
		s.MaxCleanRel = fexp(0)
	}
	return s
}

// canonicalBytes renders the card for hashing and goldens: Digest
// cleared, Host stripped.
func (s *Scorecard) canonicalBytes() []byte {
	c := *s
	c.Digest = ""
	c.Host = nil
	b, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		panic(err) // struct of strings/ints: cannot fail
	}
	return append(b, '\n')
}

// ComputeDigest returns the sha256 hex of the canonical rendering.
func (s *Scorecard) ComputeDigest() string {
	sum := sha256.Sum256(s.canonicalBytes())
	return hex.EncodeToString(sum[:])
}

// GoldenBytes is the committed-artifact rendering: canonical bytes with
// the digest filled in, host costs stripped.
func (s *Scorecard) GoldenBytes() []byte {
	c := *s
	c.Digest = s.ComputeDigest()
	c.Host = nil
	b, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// MaxCleanRelErr parses the summary's worst clean relative error.
func (s *Scorecard) MaxCleanRelErr() float64 {
	var v float64
	fmt.Sscanf(s.Summary.MaxCleanRel, "%e", &v)
	return v
}

// AllPass reports whether every row passed.
func (s *Scorecard) AllPass() bool { return s.Summary.Failed == 0 }
