package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetpapi/internal/hw"
)

var update = flag.Bool("update", false, "rewrite the golden perfstat outputs under testdata")

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

// TestGolden pins perfstat's report byte for byte to
// testdata/<case>.golden: every machine model under the loop, spin and
// stream workloads at the default -seconds, a sampled run and an HPL run
// pinned to the OrangePi's big cores. Regenerate deliberately with
//
//	go test ./cmd/perfstat -update
func TestGolden(t *testing.T) {
	type tc struct {
		name, machine, wl, cores string
		period                   uint64
	}
	var cases []tc
	for _, m := range hw.Models {
		for _, wl := range []string{"loop", "spin", "stream"} {
			cases = append(cases, tc{name: m.Name + "-" + wl, machine: m.Name, wl: wl})
		}
	}
	cases = append(cases,
		tc{name: "raptorlake-loop-sampled", machine: "raptorlake", wl: "loop", period: 1_000_000},
		tc{name: "orangepi800-hpl-cores4-5", machine: "orangepi800", wl: "hpl", cores: "4,5"},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := capture(t, func() error { return run(c.machine, c.wl, 5, c.cores, c.period) })
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v; run `go test ./cmd/perfstat -update` and commit %s", err, path)
			}
			if got != string(want) {
				t.Errorf("output drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

func TestWorkloads(t *testing.T) {
	for _, wl := range []string{"spin", "loop", "stream", "branch?"} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			if wl == "branch?" {
				if err := run("raptorlake", wl, 0.1, "", 0); err == nil {
					t.Fatal("unknown workload must fail")
				}
				return
			}
			capture(t, func() error { return run("raptorlake", wl, 0.2, "", 0) })
		})
	}
}

// TestHPLWorkloadOnCores runs the hpl workload, one thread per listed CPU,
// and checks that only the pinned core type counts.
func TestHPLWorkloadOnCores(t *testing.T) {
	out := capture(t, func() error { return run("orangepi800", "hpl", 0.2, "4-5", 0) })
	want := "LITTLE (armv8_cortex_a53):\n                   0 instructions\n"
	if !strings.Contains(out, want) {
		t.Errorf("hpl on the big cores counted on the LITTLE PMU:\n%s", out)
	}
}

func TestProfileMode(t *testing.T) {
	capture(t, func() error { return run("raptorlake", "loop", 1, "", 1_000_000) })
}

func TestErrors(t *testing.T) {
	if err := run("nope", "spin", 1, "", 0); err == nil {
		t.Error("unknown machine must fail")
	}
	if err := run("raptorlake", "spin", 1, "zzz", 0); err == nil {
		t.Error("bad cpu list must fail")
	}
}
