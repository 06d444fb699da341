package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hetpapi/internal/fleet"
)

func runCLI(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	if err := run(context.Background(), args, &out, &errw); err != nil {
		t.Fatalf("hetpapifleet %v: %v\n%s", args, err, errw.String())
	}
	return out.String(), errw.String()
}

func TestCLIReportReproducible(t *testing.T) {
	args := []string{"-n", "12", "-seed", "99", "-chaos", "0.5", "-quiet"}
	a, _ := runCLI(t, args...)
	b, _ := runCLI(t, append([]string{"-workers", "2"}, args...)...)
	if a != b {
		t.Fatal("same seed at different worker counts produced different reports")
	}
	var rep fleet.Report
	if err := json.Unmarshal([]byte(a), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Machines != 12 || rep.Seed != 99 {
		t.Fatalf("report header %+v", rep)
	}
	if rep.Completed != 12 {
		t.Fatalf("%d/12 machines completed; incidents %+v", rep.Completed, rep.Incidents)
	}
	if len(rep.Results) != 0 {
		t.Fatal("per-machine results included without -results")
	}
}

// TestCLIFleetReportPinned pins the bytes of the streamed fleet report,
// part of the behavioural contract: the 128-machine seed-7 fleet must
// render this digest at every worker count.
func TestCLIFleetReportPinned(t *testing.T) {
	const want = "38cd8ed18cfb786f4863458cd326a9b9da962a317db5029dd0b583bda06c1964"
	for _, workers := range []string{"1", "4"} {
		out, _ := runCLI(t, "-n", "128", "-seed", "7", "-stream", "-workers", workers, "-quiet")
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want {
			t.Errorf("-workers %s: report sha256 %s, want %s", workers, got, want)
		}
	}
}

func TestCLIResultsAndSummary(t *testing.T) {
	out, errw := runCLI(t, "-n", "5", "-seed", "3", "-results", "-templates", "homogeneous-stream")
	var rep fleet.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 5 {
		t.Fatalf("-results kept %d machine entries", len(rep.Results))
	}
	if len(rep.Templates) != 1 || rep.Templates[0].Template != "homogeneous-stream" {
		t.Fatalf("template filter ignored: %+v", rep.Templates)
	}
	if !strings.Contains(errw, "machine-sim-sec") || !strings.Contains(errw, "throughput") {
		t.Fatalf("summary missing from stderr: %q", errw)
	}
}

func TestCLIListTemplatesAndErrors(t *testing.T) {
	out, _ := runCLI(t, "-list-templates")
	for _, want := range []string{"raptor-hpl", "biglittle-measure", "homogeneous-stream"} {
		if !strings.Contains(out, want) {
			t.Fatalf("template listing missing %q:\n%s", want, out)
		}
	}
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-templates", "nope"}, &buf, &buf); err == nil ||
		!strings.Contains(err.Error(), "unknown template") {
		t.Fatalf("unknown template error = %v", err)
	}
	if err := run(context.Background(), []string{"-n", "0"}, &buf, &buf); err == nil {
		t.Fatal("zero machines must error")
	}
}
