package exp

import (
	"fmt"

	"hetpapi/internal/hw"
	"hetpapi/internal/stats"
	"hetpapi/internal/trace"
	"hetpapi/internal/workload"
)

// RaptorLakeCell is one averaged Table II cell: a core selection run by
// one HPL build.
type RaptorLakeCell struct {
	Cores   CoreSelection
	Variant string
	Run     HPLRun
}

// RaptorLakeResult holds the six Table II cells, core selection major
// (E only, P only, P and E) and OpenBLAS before Intel within each. Table
// II, Table III, Figures 1-2 and the energy table are views of it.
type RaptorLakeResult struct {
	Cells []RaptorLakeCell
}

// RaptorLake runs each Table II cell once, through AverageHPL on its own
// machine. The six cells run concurrently.
func RaptorLake(cfg Config) (RaptorLakeResult, error) {
	sels := []CoreSelection{EOnly, POnly, PAndE}
	strats := []workload.Strategy{workload.OpenBLASx86(), workload.IntelMKL()}
	cells := make([]RaptorLakeCell, len(sels)*len(strats))
	err := parallel(len(cells), func(i int) error {
		sel, strat := sels[i/len(strats)], strats[i%len(strats)]
		m := hw.RaptorLake()
		run, _, err := AverageHPL(cfg, m, strat, cpusFor(m, sel))
		cells[i] = RaptorLakeCell{Cores: sel, Variant: strat.Name, Run: run}
		return err
	})
	return RaptorLakeResult{Cells: cells}, err
}

// gflops returns the Gflops of a core selection and HPL build, or 0.
func (r RaptorLakeResult) gflops(sel CoreSelection, variant string) float64 {
	for _, c := range r.Cells {
		if c.Cores == sel && c.Variant == variant {
			return c.Run.Gflops
		}
	}
	return 0
}

// TableIIRow is one "Enabled cores" row of Table II.
type TableIIRow struct {
	Cores     CoreSelection
	OpenBLAS  float64 // Gflops
	Intel     float64 // Gflops
	ChangePct float64 // OpenBLAS -> Intel
}

// TableIIResult reproduces Table II: OpenBLAS HPL vs Intel HPL Gflops per
// core selection, plus the two headline deltas the paper calls out.
type TableIIResult struct {
	Rows []TableIIRow
	// OpenBLASAllVsPPct is the all-core vs P-only change for OpenBLAS
	// (paper: -18.5%, all-core is WORSE).
	OpenBLASAllVsPPct float64
	// IntelAllVsPPct is the same for Intel HPL (paper: +16.4%).
	IntelAllVsPPct float64
}

// TableII is the Table II view: Gflops per core selection and build.
func (r RaptorLakeResult) TableII() TableIIResult {
	var res TableIIResult
	for _, sel := range []CoreSelection{EOnly, POnly, PAndE} {
		ob := r.gflops(sel, "OpenBLAS HPL")
		in := r.gflops(sel, "Intel HPL")
		res.Rows = append(res.Rows, TableIIRow{
			Cores:     sel,
			OpenBLAS:  ob,
			Intel:     in,
			ChangePct: stats.PctChange(ob, in),
		})
	}
	res.OpenBLASAllVsPPct = stats.PctChange(r.gflops(POnly, "OpenBLAS HPL"), r.gflops(PAndE, "OpenBLAS HPL"))
	res.IntelAllVsPPct = stats.PctChange(r.gflops(POnly, "Intel HPL"), r.gflops(PAndE, "Intel HPL"))
	return res
}

// String renders the result in the paper's Table II layout.
func (r TableIIResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			string(row.Cores),
			fmt.Sprintf("%.2f Gflops", row.OpenBLAS),
			fmt.Sprintf("%.2f Gflops", row.Intel),
			fmt.Sprintf("%+.1f%%", row.ChangePct),
		})
	}
	s := table([]string{"Enabled cores", "OpenBLAS HPL", "Intel HPL", "% Change"}, rows)
	s += fmt.Sprintf("OpenBLAS all-core vs P-only: %+.1f%% (paper: -18.5%%)\n", r.OpenBLASAllVsPPct)
	s += fmt.Sprintf("Intel    all-core vs P-only: %+.1f%% (paper: +16.4%%)\n", r.IntelAllVsPPct)
	return s
}

// TableIIICell holds the measured values for one (variant, core type).
type TableIIICell struct {
	LLCMissRate float64
	InstrShare  float64
}

// TableIIIResult reproduces Table III: hardware counter measurements of
// the two all-core runs, per core type.
type TableIIIResult struct {
	// Cells[variant][coreTypeName].
	Cells map[string]map[string]TableIIICell
}

// TableIII is the Table III view: the counters of the two all-core cells.
func (r RaptorLakeResult) TableIII() TableIIIResult {
	res := TableIIIResult{Cells: map[string]map[string]TableIIICell{}}
	for _, c := range r.Cells {
		if c.Cores != PAndE {
			continue
		}
		var totalInstr float64
		for _, tc := range c.Run.ByType {
			totalInstr += tc.Instructions
		}
		res.Cells[c.Variant] = map[string]TableIIICell{}
		for name, tc := range c.Run.ByType {
			share := 0.0
			if totalInstr > 0 {
				share = tc.Instructions / totalInstr
			}
			res.Cells[c.Variant][name] = TableIIICell{
				LLCMissRate: tc.MissRate(),
				InstrShare:  share,
			}
		}
	}
	return res
}

// String renders Table III in the paper's layout.
func (r TableIIIResult) String() string {
	rows := [][]string{}
	for _, metric := range []string{"LLC missrate", "% of total instructions"} {
		row := []string{metric}
		for _, variant := range []string{"OpenBLAS HPL", "Intel HPL"} {
			for _, ct := range []string{"P-core", "E-core"} {
				cell := r.Cells[variant][ct]
				switch metric {
				case "LLC missrate":
					row = append(row, fmt.Sprintf("%.2f%%", cell.LLCMissRate*100))
				default:
					row = append(row, fmt.Sprintf("%.0f%%", cell.InstrShare*100))
				}
			}
		}
		rows = append(rows, row)
	}
	return table([]string{"", "OpenBLAS P", "OpenBLAS E", "Intel P", "Intel E"}, rows)
}

// FigureSeries is the monitoring trace of one all-core run plus the
// summary frequencies the paper quotes in the Figure 1 discussion.
type FigureSeries struct {
	Variant string
	Samples []trace.Sample
	// MedianPFreqMHz / MedianEFreqMHz are the median busy-core
	// frequencies (paper: Intel 2610/2320, OpenBLAS 2940/2260).
	MedianPFreqMHz float64
	MedianEFreqMHz float64
	// PeakPowerW and PlateauPowerW summarize the Figure 2 shape
	// (paper: OpenBLAS peaks at 165.7 W, both plateau at 65 W).
	PeakPowerW    float64
	PlateauPowerW float64
	// MaxTempC is the hottest package temperature (paper: below 100).
	MaxTempC float64
}

// Figures1And2Result carries the per-variant traces behind Figures 1 and 2.
type Figures1And2Result struct {
	ByVariant map[string]FigureSeries
}

// Figures1And2 is the frequency (Fig. 1) and power/temperature (Fig. 2)
// view: the traces of the two all-core cells.
func (r RaptorLakeResult) Figures1And2() Figures1And2Result {
	m := hw.RaptorLake()
	res := Figures1And2Result{ByVariant: map[string]FigureSeries{}}
	pcpus := cpusFor(m, POnly)
	ecpus := m.CPUsOfType("E-core")
	for _, c := range r.Cells {
		if c.Cores != PAndE {
			continue
		}
		run := c.Run
		fs := FigureSeries{Variant: c.Variant, Samples: run.Samples}
		// Drop the first and last samples (ramp-up and completion) from
		// the medians, as eyeballing the paper's plots does.
		pSeries := trace.MeanFreqSeries(run.Samples, pcpus)
		eSeries := trace.MeanFreqSeries(run.Samples, ecpus)
		if len(pSeries) > 4 {
			pSeries = pSeries[1 : len(pSeries)-1]
			eSeries = eSeries[1 : len(eSeries)-1]
		}
		fs.MedianPFreqMHz = stats.Median(pSeries)
		fs.MedianEFreqMHz = stats.Median(eSeries)
		power := trace.PowerSeries(run.Samples)
		if len(power) > 1 {
			power = power[1:] // first sample has no energy delta
		}
		fs.PeakPowerW = stats.Max(power)
		fs.PlateauPowerW = stats.Median(power)
		fs.MaxTempC = stats.Max(trace.TempSeries(run.Samples))
		res.ByVariant[c.Variant] = fs
	}
	return res
}

// String summarizes the Figure 1/2 shapes.
func (r Figures1And2Result) String() string {
	rows := [][]string{}
	for _, v := range []string{"OpenBLAS HPL", "Intel HPL"} {
		fs, ok := r.ByVariant[v]
		if !ok {
			continue
		}
		rows = append(rows, []string{
			v,
			fmt.Sprintf("%.2f GHz", fs.MedianPFreqMHz/1000),
			fmt.Sprintf("%.2f GHz", fs.MedianEFreqMHz/1000),
			fmt.Sprintf("%.1f W", fs.PeakPowerW),
			fmt.Sprintf("%.1f W", fs.PlateauPowerW),
			fmt.Sprintf("%.1f C", fs.MaxTempC),
			fmt.Sprintf("%d samples", len(fs.Samples)),
		})
	}
	return table([]string{"Variant", "median P freq", "median E freq",
		"peak power", "plateau power", "max temp", "trace"}, rows)
}
