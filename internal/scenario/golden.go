package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hetpapi/internal/trace"
)

// Golden is the committed fingerprint of one reference scenario run: the
// behavior digest plus a few human-readable scalars so a regression
// failure says WHAT moved, not just that something did. Scalars are stored
// as fixed-precision strings to keep the files byte-stable.
type Golden struct {
	Name       string `json:"name"`
	Machine    string `json:"machine"`
	Digest     string `json:"digest"`
	Samples    int    `json:"samples"`
	Completed  bool   `json:"completed"`
	ElapsedSec string `json:"elapsed_sec"`
	EnergyJ    string `json:"energy_j"`
	MaxTempC   string `json:"max_temp_c"`
	MeanPowerW string `json:"mean_power_w"`
	Gflops     string `json:"gflops,omitempty"`
}

// GoldenOf condenses a run into its golden fingerprint.
func GoldenOf(res *Result) Golden {
	sum := trace.Summarize(res.Samples)
	g := Golden{
		Name:       res.Name,
		Machine:    res.MachineName,
		Digest:     res.Digest,
		Samples:    sum.Samples,
		Completed:  res.Completed,
		ElapsedSec: fmt.Sprintf("%.3f", res.ElapsedSec),
		EnergyJ:    fmt.Sprintf("%.3f", res.EnergyJ),
		MaxTempC:   fmt.Sprintf("%.3f", sum.MaxTempC),
		MeanPowerW: fmt.Sprintf("%.3f", sum.MeanPowerW),
	}
	for _, w := range res.Workloads {
		if w.Kind == WorkloadHPL && w.Done {
			g.Gflops = fmt.Sprintf("%.3f", w.Gflops)
			break
		}
	}
	return g
}

// Diff returns a human-readable field-by-field comparison against another
// golden ("" when identical).
func (g Golden) Diff(other Golden) string {
	var b strings.Builder
	cmp := func(field, a, bv string) {
		if a != bv {
			fmt.Fprintf(&b, "  %s: %s -> %s\n", field, a, bv)
		}
	}
	cmp("machine", g.Machine, other.Machine)
	cmp("digest", g.Digest, other.Digest)
	cmp("samples", fmt.Sprint(g.Samples), fmt.Sprint(other.Samples))
	cmp("completed", fmt.Sprint(g.Completed), fmt.Sprint(other.Completed))
	cmp("elapsed_sec", g.ElapsedSec, other.ElapsedSec)
	cmp("energy_j", g.EnergyJ, other.EnergyJ)
	cmp("max_temp_c", g.MaxTempC, other.MaxTempC)
	cmp("mean_power_w", g.MeanPowerW, other.MeanPowerW)
	cmp("gflops", g.Gflops, other.Gflops)
	return b.String()
}

// GoldenPath returns the testdata path of a scenario's golden file.
func GoldenPath(dir, name string) string {
	return filepath.Join(dir, name+".json")
}

// LoadGolden reads a committed golden file.
func LoadGolden(path string) (Golden, error) {
	var g Golden
	raw, err := os.ReadFile(path)
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		return g, fmt.Errorf("golden %s: %w", path, err)
	}
	return g, nil
}

// SaveGolden writes a golden file (the -update workflow).
func SaveGolden(path string, g Golden) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
