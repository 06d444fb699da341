package main

import (
	"bytes"
	"io"
	"os"
	"testing"

	"hetpapi/internal/exp"
	"hetpapi/internal/hw"
	"hetpapi/internal/trace"
)

// capture runs fn with os.Stdout redirected and returns what it wrote.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestMonitorRaptorLake(t *testing.T) {
	capture(t, func() error {
		return run("raptorlake", "intel", "0,2,4,6", 3840, 192, 1, 35, 1, 1)
	})
}

func TestMonitorOrangePi(t *testing.T) {
	capture(t, func() error {
		return run("orangepi800", "openblas", "", 4096, 128, 2, 35, 0.5, 1)
	})
}

// TestMonitorIsThePaperProtocol: monhpl's averaged trace of the Intel
// build on the default cores (one thread per core) is the trace behind
// Figures 1-2's Intel series: the same runs on one machine, settled to
// the same temperature between them.
func TestMonitorIsThePaperProtocol(t *testing.T) {
	cfg := exp.Quick()
	cfg.N, cfg.NB, cfg.Runs, cfg.SettleTempC, cfg.Seed = 19200, 192, 2, 35, 1
	got := capture(t, func() error {
		return run("raptorlake", "intel", "", cfg.N, cfg.NB, cfg.Runs, cfg.SettleTempC, 1, cfg.Seed)
	})
	sweep, err := exp.RaptorLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	samples := sweep.Figures1And2().ByVariant["Intel HPL"].Samples
	if err := trace.WriteCSV(&want, hw.RaptorLake().NumCPUs(), samples); err != nil {
		t.Fatal(err)
	}
	if len(samples) < 5 || got != want.String() {
		t.Fatalf("monhpl CSV (%d bytes) differs from the Figures 1-2 Intel trace (%d samples, %d bytes)",
			len(got), len(samples), want.Len())
	}
}

func TestMonitorErrors(t *testing.T) {
	if err := run("nope", "openblas", "", 0, 0, 1, 35, 1, 1); err == nil {
		t.Error("unknown machine must fail")
	}
	if err := run("raptorlake", "nope", "", 0, 0, 1, 35, 1, 1); err == nil {
		t.Error("unknown variant must fail")
	}
	if err := run("orangepi800", "intel", "", 0, 0, 1, 35, 1, 1); err == nil {
		t.Error("intel variant on ARM must fail")
	}
	if err := run("raptorlake", "intel", "0-99", 3840, 192, 1, 35, 1, 1); err == nil {
		t.Error("out-of-range cores must fail")
	}
	if err := run("raptorlake", "intel", "bogus", 3840, 192, 1, 35, 1, 1); err == nil {
		t.Error("malformed cores must fail")
	}
	// The recorder polls at 1 Hz and resampling can only keep every k-th
	// sample, so a rate outside (0, 1] or other than 1/k cannot be
	// honoured.
	for _, hz := range []float64{0, -1, 2, 0.7, 0.4} {
		if err := run("raptorlake", "intel", "0,2", 3840, 192, 1, 35, hz, 1); err == nil {
			t.Errorf("-hz %g must fail", hz)
		}
	}
}

func TestResample(t *testing.T) {
	samples := sampleSeq(10)
	if got := resample(samples, 1); len(got) != 10 {
		t.Errorf("1 Hz resample changed length: %d", len(got))
	}
	if got := resample(samples, 0.5); len(got) != 5 {
		t.Errorf("0.5 Hz resample = %d samples, want 5", len(got))
	}
	if got := resample(samples, 1.0/3); len(got) != 4 || got[1].TimeSec != 3 {
		t.Errorf("1/3 Hz resample = %v, want samples 0, 3, 6, 9", got)
	}
	if got := resample(samples, 0); len(got) != 10 {
		t.Errorf("0 Hz resample must be a no-op: %d", len(got))
	}
}

func sampleSeq(n int) (out []trace.Sample) {
	for i := 0; i < n; i++ {
		out = append(out, trace.Sample{TimeSec: float64(i)})
	}
	return
}
