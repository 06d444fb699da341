package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hetpapi/internal/hw"
	"hetpapi/internal/sim"
	"hetpapi/internal/workload"
)

func TestColumnNames(t *testing.T) {
	got := ColumnNames(2)
	want := []string{"time_s", "cpu0_mhz", "cpu1_mhz", "temp_c", "energy_j", "power_w", "wall_w"}
	if len(got) != len(want) {
		t.Fatalf("ColumnNames(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("column %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func sampleTrace(t *testing.T) []Sample {
	t.Helper()
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	s.Spawn(workload.NewSpin("w", 10), hw.NewCPUSet(0))
	return record(s, 1, 6).Samples()
}

func TestCSVRoundTrip(t *testing.T) {
	samples := sampleTrace(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, 24, samples); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(samples) {
		t.Fatalf("round trip lost samples: %d vs %d", len(parsed), len(samples))
	}
	for i := range samples {
		if math.Abs(parsed[i].TimeSec-samples[i].TimeSec) > 0.001 {
			t.Fatalf("sample %d time %g vs %g", i, parsed[i].TimeSec, samples[i].TimeSec)
		}
		if math.Abs(parsed[i].PowerW-samples[i].PowerW) > 0.001 {
			t.Fatalf("sample %d power %g vs %g", i, parsed[i].PowerW, samples[i].PowerW)
		}
		if len(parsed[i].FreqMHz) != 24 {
			t.Fatalf("sample %d has %d cpus", i, len(parsed[i].FreqMHz))
		}
		if math.Abs(parsed[i].FreqMHz[0]-samples[i].FreqMHz[0]) > 0.001 {
			t.Fatalf("sample %d cpu0 freq %g vs %g", i, parsed[i].FreqMHz[0], samples[i].FreqMHz[0])
		}
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus,header\n1,2\n",
		"time_s,cpu0_mhz,temp_c,energy_j,power_w\n", // missing wall_w
		"time_s,cpu0_mhz,temp_c,energy_j,power_w,wall_w\n1,2,3\n",
		"time_s,cpu0_mhz,temp_c,energy_j,power_w,wall_w\nx,2,3,4,5,6\n",
		// Strict header validation: the schema is positional.
		"time_s,cpu1_mhz,cpu0_mhz,temp_c,energy_j,power_w,wall_w\n1,2,3,4,5,6,7\n", // out of order
		"time_s,cpu0_mhz,cpu2_mhz,temp_c,energy_j,power_w,wall_w\n1,2,3,4,5,6,7\n", // gap in numbering
		"time_s,cpu0_mhz,energy_j,temp_c,power_w,wall_w\n1,2,3,4,5,6\n",            // swapped fixed columns
		"time_s,cpu0_mhz,temp_c,energy_j,power_w,wall_w,extra\n1,2,3,4,5,6,7\n",    // trailing junk column
		"time_s,freq_mhz,temp_c,energy_j,power_w,wall_w\n1,2,3,4,5,6\n",            // non-schema cpu column
	}
	for _, c := range cases {
		if _, err := ParseCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ParseCSV accepted %q", c)
		}
	}
}

func TestCSVZeroSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, 4, nil); err != nil {
		t.Fatal(err)
	}
	out, err := ParseCSV(&buf)
	if err != nil {
		t.Fatalf("header-only trace rejected: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("parsed %d samples from an empty trace", len(out))
	}
}

// TestCSVNonFinite pins the serialization of non-finite values: a recorder
// bug that produces NaN or Inf must survive the round trip verbatim (so it
// is visible downstream) rather than being silently laundered into zeros.
func TestCSVNonFinite(t *testing.T) {
	in := []Sample{{
		TimeSec: 0,
		FreqMHz: []float64{math.NaN(), math.Inf(1)},
		TempC:   math.Inf(-1),
		EnergyJ: 1,
		PowerW:  math.NaN(),
		WallW:   2,
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, 2, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := out[0]
	if !math.IsNaN(s.FreqMHz[0]) || !math.IsInf(s.FreqMHz[1], 1) {
		t.Errorf("freqs round-tripped to %v", s.FreqMHz)
	}
	if !math.IsInf(s.TempC, -1) || !math.IsNaN(s.PowerW) {
		t.Errorf("temp/power round-tripped to %v/%v", s.TempC, s.PowerW)
	}
	if s.EnergyJ != 1 || s.WallW != 2 {
		t.Errorf("finite fields corrupted: %+v", s)
	}
}

// TestCSVRaggedFreq pins WriteCSV's handling of samples whose FreqMHz
// length disagrees with ncpu: short samples are zero-padded, long ones
// truncated, and either way the file stays rectangular and parseable.
func TestCSVRaggedFreq(t *testing.T) {
	in := []Sample{
		{TimeSec: 0, FreqMHz: []float64{1000}},             // shorter than ncpu
		{TimeSec: 1, FreqMHz: []float64{1100, 1200, 1300}}, // longer than ncpu
		{TimeSec: 2, FreqMHz: nil},                         // no frequencies at all
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, 2, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d samples, want 3", len(out))
	}
	for i, s := range out {
		if len(s.FreqMHz) != 2 {
			t.Fatalf("sample %d has %d cpu columns, want 2", i, len(s.FreqMHz))
		}
	}
	if out[0].FreqMHz[0] != 1000 || out[0].FreqMHz[1] != 0 {
		t.Errorf("short sample not zero-padded: %v", out[0].FreqMHz)
	}
	if out[1].FreqMHz[0] != 1100 || out[1].FreqMHz[1] != 1200 {
		t.Errorf("long sample not truncated to ncpu: %v", out[1].FreqMHz)
	}
	if out[2].FreqMHz[0] != 0 || out[2].FreqMHz[1] != 0 {
		t.Errorf("nil freq sample not zero-filled: %v", out[2].FreqMHz)
	}
}

func TestSummarize(t *testing.T) {
	samples := []Sample{
		{TimeSec: 0, FreqMHz: []float64{1000, 2000}, TempC: 30, PowerW: 999, EnergyJ: 0, WallW: 50},
		{TimeSec: 1, FreqMHz: []float64{3000, 2000}, TempC: 42, PowerW: 60, EnergyJ: 60, WallW: 70},
		{TimeSec: 2, FreqMHz: []float64{5000, 2000}, TempC: 40, PowerW: 70, EnergyJ: 130, WallW: 80},
	}
	sum := Summarize(samples)
	if sum.Samples != 3 || sum.DurationSec != 2 {
		t.Fatalf("extent: %+v", sum)
	}
	// First sample's power (999, no energy delta) must be excluded.
	if sum.MeanPowerW != 65 || sum.PeakPowerW != 70 {
		t.Fatalf("power summary: %+v", sum)
	}
	if sum.EnergyJ != 130 || sum.MaxTempC != 42 {
		t.Fatalf("energy/temp: %+v", sum)
	}
	if sum.MedianFreqMHz[0] != 3000 || sum.MedianFreqMHz[1] != 2000 {
		t.Fatalf("medians: %v", sum.MedianFreqMHz)
	}
	if got := Summarize(nil); got.Samples != 0 {
		t.Fatal("empty summarize")
	}
}

// Property: WriteCSV/ParseCSV round-trips arbitrary bounded sample values
// to millidigit precision.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(rows []struct {
		T, F0, F1, Temp, E, P, W uint16
	}) bool {
		if len(rows) == 0 {
			return true
		}
		var in []Sample
		for i, r := range rows {
			in = append(in, Sample{
				TimeSec: float64(i),
				FreqMHz: []float64{float64(r.F0), float64(r.F1)},
				TempC:   float64(r.Temp) / 100,
				EnergyJ: float64(r.E),
				PowerW:  float64(r.P) / 10,
				WallW:   float64(r.W) / 10,
			})
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, 2, in); err != nil {
			return false
		}
		out, err := ParseCSV(&buf)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if math.Abs(out[i].TempC-in[i].TempC) > 0.001 ||
				math.Abs(out[i].PowerW-in[i].PowerW) > 0.001 ||
				out[i].FreqMHz[1] != in[i].FreqMHz[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
