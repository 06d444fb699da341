package main

import (
	"os"
	"strings"
	"testing"
)

// capture redirects stdout while fn runs and returns what was printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errCh := make(chan error, 1)
	outCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 1<<20)
		var sb strings.Builder
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		outCh <- sb.String()
	}()
	errCh <- fn()
	w.Close()
	os.Stdout = old
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	return <-outCh
}

func TestInfoCommand(t *testing.T) {
	out := capture(t, func() error { return run("raptorlake", false, "info") })
	for _, want := range []string{"GenuineIntel", "Hybrid          : true", "cpu_core", "cpu_atom"} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q", want)
		}
	}
	out = capture(t, func() error { return run("raptorlake", true, "info") })
	if !strings.Contains(out, "legacy mode") {
		t.Error("legacy info must note the reporting gap")
	}
}

func TestAvailCommand(t *testing.T) {
	out := capture(t, func() error { return run("orangepi800", false, "avail") })
	if !strings.Contains(out, "PAPI_TOT_INS") {
		t.Error("avail output missing PAPI_TOT_INS")
	}
}

func TestNativeCommandLists(t *testing.T) {
	out := capture(t, func() error { return run("homogeneous", false, "native") })
	if !strings.Contains(out, "skl::INST_RETIRED:ANY") {
		t.Error("native listing missing skl events")
	}
}

func TestSysdetectCommand(t *testing.T) {
	out := capture(t, func() error { return run("orangepi800", false, "sysdetect") })
	if !strings.Contains(out, "pmu:armv8_cortex_a72") {
		t.Errorf("sysdetect output: %q", out)
	}
}

func TestUnknownInputs(t *testing.T) {
	if err := run("nope", false, "info"); err == nil {
		t.Error("unknown machine must fail")
	}
	if err := run("raptorlake", false, "nope"); err == nil {
		t.Error("unknown command must fail")
	}
	if err := run("orangepi800", false, "hybrid"); err == nil {
		t.Error("hybrid on non-raptorlake must fail")
	}
	if err := run("orangepi800", false, "cost"); err == nil {
		t.Error("cost on non-raptorlake must fail")
	}
}

func TestNativeCommandUnknownMachineError(t *testing.T) {
	err := run("dimensity", false, "native")
	if err == nil || !strings.Contains(err.Error(), "dimensity9000") {
		t.Errorf("an unknown machine must fail with the list of models, got %v", err)
	}
}

func TestMeasureCommand(t *testing.T) {
	out := capture(t, func() error {
		return runMeasure("raptorlake", false, "PAPI_TOT_INS,PAPI_TOT_CYC,rapl::ENERGY_PKG", "loop")
	})
	for _, want := range []string{"PAPI_TOT_INS", "rapl::ENERGY_PKG", "perf groups"} {
		if !strings.Contains(out, want) {
			t.Errorf("measure output missing %q", want)
		}
	}
}

func TestMeasureCommandErrors(t *testing.T) {
	if err := runMeasure("nope", false, "PAPI_TOT_INS", "loop"); err == nil {
		t.Error("unknown machine must fail")
	}
	if err := runMeasure("raptorlake", false, "PAPI_TOT_INS", "nope"); err == nil {
		t.Error("unknown workload must fail")
	}
	if err := runMeasure("raptorlake", false, "adl_grt::TOPDOWN:SLOTS", "loop"); err == nil {
		t.Error("E-core topdown must fail (the paper's canonical unavailable event)")
	}
	if err := runMeasure("raptorlake", false, "PAPI_NOPE", "loop"); err == nil {
		t.Error("unknown preset must fail")
	}
	// Legacy mode: cross-PMU event list must conflict.
	if err := runMeasure("raptorlake", true,
		"adl_glc::INST_RETIRED:ANY,adl_grt::INST_RETIRED:ANY", "loop"); err == nil {
		t.Error("legacy cross-PMU list must fail")
	}
}
