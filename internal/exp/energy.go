package exp

// Energy-to-solution extension: the paper's motivation for heterogeneous
// cores is energy efficiency, and its methodology collects RAPL energy for
// every run — but the paper never tabulates efficiency. This view closes
// that loop: Gflops/W and energy-to-solution for each Table II cell,
// measured through the RAPL counters of the simulated package.

import "fmt"

// EnergyRow is one (core selection, variant) cell of the efficiency table.
type EnergyRow struct {
	Cores   CoreSelection
	Variant string
	// Gflops is the benchmark figure of merit.
	Gflops float64
	// EnergyKJ is the RAPL package energy to solution in kilojoules.
	EnergyKJ float64
	// GflopsPerWatt is the efficiency figure (flops per joule / 1e9).
	GflopsPerWatt float64
}

// EnergyResult is the efficiency view of the Table II experiment.
type EnergyResult struct {
	Rows []EnergyRow
}

// EnergyTable is the efficiency view: energy-to-solution for every
// Table II cell.
func (r RaptorLakeResult) EnergyTable() EnergyResult {
	var res EnergyResult
	for _, c := range r.Cells {
		row := EnergyRow{
			Cores:    c.Cores,
			Variant:  c.Variant,
			Gflops:   c.Run.Gflops,
			EnergyKJ: c.Run.EnergyJ / 1000,
		}
		if c.Run.EnergyJ > 0 {
			// flops = Gflops * 1e9 * elapsed; efficiency = flops/J / 1e9.
			row.GflopsPerWatt = c.Run.Gflops * c.Run.ElapsedSec / c.Run.EnergyJ
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Row returns the cell for a selection and variant, or nil.
func (r EnergyResult) Row(sel CoreSelection, variant string) *EnergyRow {
	for i := range r.Rows {
		if r.Rows[i].Cores == sel && r.Rows[i].Variant == variant {
			return &r.Rows[i]
		}
	}
	return nil
}

// String renders the efficiency table.
func (r EnergyResult) String() string {
	rows := [][]string{}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			string(row.Cores),
			row.Variant,
			fmt.Sprintf("%.1f Gflops", row.Gflops),
			fmt.Sprintf("%.0f kJ", row.EnergyKJ),
			fmt.Sprintf("%.2f Gflops/W", row.GflopsPerWatt),
		})
	}
	return table([]string{"Enabled cores", "Variant", "perf", "energy to solution", "efficiency"}, rows)
}
