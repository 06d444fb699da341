package exp

import (
	"strings"
	"testing"
)

func TestEnergyTableShape(t *testing.T) {
	res := raptorLake(t).EnergyTable()
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Gflops <= 0 || row.EnergyKJ <= 0 || row.GflopsPerWatt <= 0 {
			t.Fatalf("incomplete row: %+v", row)
		}
		// Desktop CPUs land in the single-digit Gflops/W range.
		if row.GflopsPerWatt < 0.5 || row.GflopsPerWatt > 30 {
			t.Errorf("%s/%s efficiency %.2f Gflops/W implausible", row.Cores, row.Variant, row.GflopsPerWatt)
		}
	}
	// The hybrid-aware build on all cores is the most energy-efficient
	// configuration — the point of heterogeneous processors. It must beat
	// the hybrid-oblivious build on the same cores and the P-only run.
	intelAll := res.Row(PAndE, "Intel HPL")
	oblasAll := res.Row(PAndE, "OpenBLAS HPL")
	intelP := res.Row(POnly, "Intel HPL")
	if intelAll == nil || oblasAll == nil || intelP == nil {
		t.Fatal("missing cells")
	}
	if intelAll.GflopsPerWatt <= oblasAll.GflopsPerWatt {
		t.Errorf("Intel all-core %.2f Gflops/W !> OpenBLAS all-core %.2f",
			intelAll.GflopsPerWatt, oblasAll.GflopsPerWatt)
	}
	if intelAll.GflopsPerWatt <= intelP.GflopsPerWatt {
		t.Errorf("Intel all-core %.2f Gflops/W !> Intel P-only %.2f (E-cores should raise efficiency)",
			intelAll.GflopsPerWatt, intelP.GflopsPerWatt)
	}
	// OpenBLAS all-core burns more energy to solution than OpenBLAS P-only
	// (slower AND all cores powered).
	oblasP := res.Row(POnly, "OpenBLAS HPL")
	if oblasAll.EnergyKJ <= oblasP.EnergyKJ {
		t.Errorf("OpenBLAS all-core energy %.0f kJ !> P-only %.0f kJ", oblasAll.EnergyKJ, oblasP.EnergyKJ)
	}
	if res.Row("nope", "x") != nil {
		t.Error("unknown cell must be nil")
	}
	if !strings.Contains(res.String(), "Gflops/W") {
		t.Error("rendering broken")
	}
}
