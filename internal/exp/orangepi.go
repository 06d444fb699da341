package exp

import (
	"fmt"

	"hetpapi/internal/hw"
	"hetpapi/internal/stats"
	"hetpapi/internal/trace"
	"hetpapi/internal/workload"
)

// ArmConfig names one OrangePi core configuration of Figures 3 and 4.
type ArmConfig struct {
	// Label is the row name ("2 big", "4 LITTLE", "all 6").
	Label string
	// Big and Little are how many cores of each cluster run HPL threads.
	Big    int
	Little int
}

// armCPUs returns the pinned CPU list of a configuration.
func armCPUs(m *hw.Machine, c ArmConfig) []int {
	var out []int
	little := m.CPUsOfType("LITTLE")
	big := m.CPUsOfType("big")
	for i := 0; i < c.Little && i < len(little); i++ {
		out = append(out, little[i])
	}
	for i := 0; i < c.Big && i < len(big); i++ {
		out = append(out, big[i])
	}
	return out
}

// ArmRun is one OrangePi configuration's HPL run.
type ArmRun struct {
	Config ArmConfig
	Run    HPLRun
}

// OrangePiResult holds the five Figure 4 configurations' runs, in
// Figure 4's order. Figures 3 and 4 are views of it.
type OrangePiResult struct {
	Runs []ArmRun
}

// OrangePi runs each Figure 4 configuration once, on its own machine;
// the five runs are concurrent.
func OrangePi(cfg Config) (OrangePiResult, error) {
	configs := []ArmConfig{
		{Label: "1 big", Big: 1},
		{Label: "2 big", Big: 2},
		{Label: "2 LITTLE", Little: 2},
		{Label: "4 LITTLE", Little: 4},
		{Label: "all 6", Big: 2, Little: 4},
	}
	runs := make([]ArmRun, len(configs))
	err := parallel(len(runs), func(i int) error {
		m := hw.OrangePi800()
		run, err := RunHPL(m, workload.OpenBLASArm(), armCPUs(m, configs[i]), cfg.ArmN, cfg.ArmNB, cfg.Seed)
		runs[i] = ArmRun{Config: configs[i], Run: run}
		return err
	})
	return OrangePiResult{Runs: runs}, err
}

// Figure3Series is the monitoring trace of one OrangePi run.
type Figure3Series struct {
	Config  ArmConfig
	Samples []trace.Sample
	// StartBigMHz and SustainedBigMHz capture the Figure 3 collapse: the
	// big cluster's frequency at the start vs the median over the rest of
	// the run.
	StartBigMHz     float64
	SustainedBigMHz float64
	// SustainedLittleMHz is the LITTLE cluster's median frequency.
	SustainedLittleMHz float64
	// MaxTempC is the hottest zone temperature (reaches the 85 degC trip
	// for big-core runs).
	MaxTempC float64
	// MeanWallW is the average WattsUpPro reading.
	MeanWallW float64
	Gflops    float64
}

// Figure3Result carries the traces behind Figure 3.
type Figure3Result struct {
	Series []Figure3Series
}

// Figure3 is the frequency/power/thermal trace view of the big-only,
// LITTLE-only and all-core runs.
func (r OrangePiResult) Figure3() Figure3Result {
	var res Figure3Result
	m := hw.OrangePi800()
	for _, ar := range r.Runs {
		switch ar.Config.Label {
		case "2 big", "4 LITTLE", "all 6": // the configurations Figure 3 traces
		default:
			continue
		}
		run := ar.Run
		fs := Figure3Series{Config: ar.Config, Samples: run.Samples, Gflops: run.Gflops}
		bigSeries := trace.MeanFreqSeries(run.Samples, m.CPUsOfType("big"))
		littleSeries := trace.MeanFreqSeries(run.Samples, m.CPUsOfType("LITTLE"))
		if len(bigSeries) > 0 {
			fs.StartBigMHz = stats.Max(bigSeries[:min(3, len(bigSeries))])
		}
		if len(bigSeries) > 5 {
			fs.SustainedBigMHz = stats.Median(bigSeries[5:])
			fs.SustainedLittleMHz = stats.Median(littleSeries[5:])
		}
		fs.MaxTempC = stats.Max(trace.TempSeries(run.Samples))
		var wall []float64
		for _, s := range run.Samples {
			wall = append(wall, s.WallW)
		}
		fs.MeanWallW = stats.Mean(wall)
		res.Series = append(res.Series, fs)
	}
	return res
}

// String summarizes the Figure 3 shapes.
func (r Figure3Result) String() string {
	rows := [][]string{}
	for _, fs := range r.Series {
		rows = append(rows, []string{
			fs.Config.Label,
			fmt.Sprintf("%.0f MHz", fs.StartBigMHz),
			fmt.Sprintf("%.0f MHz", fs.SustainedBigMHz),
			fmt.Sprintf("%.0f MHz", fs.SustainedLittleMHz),
			fmt.Sprintf("%.1f C", fs.MaxTempC),
			fmt.Sprintf("%.1f W", fs.MeanWallW),
			fmt.Sprintf("%.2f Gflops", fs.Gflops),
		})
	}
	return table([]string{"Config", "big start", "big sustained",
		"LITTLE sustained", "max temp", "wall power", "HPL"}, rows)
}

// Figure4Row is one core configuration's HPL result.
type Figure4Row struct {
	Config     ArmConfig
	Gflops     float64
	ElapsedSec float64
}

// Figure4Result reproduces Figure 4: OrangePi HPL performance as more
// cores are added.
type Figure4Result struct {
	Rows []Figure4Row
}

// Figure4 is the core-count sweep view.
func (r OrangePiResult) Figure4() Figure4Result {
	var res Figure4Result
	for _, ar := range r.Runs {
		res.Rows = append(res.Rows, Figure4Row{Config: ar.Config, Gflops: ar.Run.Gflops, ElapsedSec: ar.Run.ElapsedSec})
	}
	return res
}

// Row returns the row with the given label, or nil.
func (r Figure4Result) Row(label string) *Figure4Row {
	for i := range r.Rows {
		if r.Rows[i].Config.Label == label {
			return &r.Rows[i]
		}
	}
	return nil
}

// String renders the sweep.
func (r Figure4Result) String() string {
	rows := [][]string{}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Config.Label,
			fmt.Sprintf("%.2f Gflops", row.Gflops),
			fmt.Sprintf("%.0f s", row.ElapsedSec),
		})
	}
	return table([]string{"Config", "HPL", "time"}, rows)
}
