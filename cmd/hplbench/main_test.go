package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hetpapi/internal/exp"
)

var update = flag.Bool("update", false, "rewrite the golden experiment outputs under testdata")

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

func smallCfg() exp.Config {
	cfg := exp.Quick()
	cfg.N = 3840
	cfg.ArmN = 4096
	return cfg
}

// TestRunEachExperiment pins each experiment's output byte for byte to
// testdata/<experiment>.golden. Regenerate deliberately with
//
//	go test ./cmd/hplbench -update
func TestRunEachExperiment(t *testing.T) {
	for _, which := range []string{"table2", "table3", "fig12", "fig3", "fig4", "energy", "ablations"} {
		t.Run(which, func(t *testing.T) {
			got := capture(t, func() error { return run(smallCfg(), which) })
			path := filepath.Join("testdata", which+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v; run `go test ./cmd/hplbench -update` and commit %s", err, path)
			}
			if got != string(want) {
				t.Errorf("%s output drifted from %s:\n got:\n%s\nwant:\n%s", which, path, got, want)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(smallCfg(), "nope"); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}
