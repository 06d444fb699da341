package hetpapi

// TestBenchTrajectory validates the committed BENCH_*.json trajectory:
// each file must parse, carry the fields the next PR's comparison needs,
// and its recorded figures must satisfy its own gate. Two case schemas
// exist in the trajectory:
//
//   - single-machine (BENCH_6): event_sim_s_per_wall_s vs
//     tick_sim_s_per_wall_s per case, gated on min_speedup (the event
//     core against the deleted legacy tick loop) and the seed baseline.
//   - fleet (BENCH_7): machine_sim_s_per_wall_s per case (summed
//     simulated machine-seconds per wall second across the whole fleet
//     run), gated on min_throughput.
//   - ingest (BENCH_9): points_per_s / ns_per_point / allocs_per_point
//     per case (fleet streaming-observability ingest through the rung
//     hierarchy), gated on min_throughput (points/s) and
//     max_allocs_per_point.
//   - serving (BENCH_10): qps / p50_ms / p99_ms / error_pct /
//     allocs_per_op per case, produced by the hetpapiload open-loop
//     harness against the in-process daemon rig, gated on min_qps,
//     max_p99_ms and max_overhead_ratio (BenchmarkHTTPObsOverhead's
//     instrumented/bare request cost).
//
// The test checks the *recorded* numbers, not a live benchmark run, so
// CI stays deterministic on noisy shared runners; the CI bench-smoke
// steps separately run BenchmarkSimThroughput and a small
// BenchmarkFleetThroughput to prove the benchmarks still execute.
//
// Every repo path a file cites (a gate's test file, a command's package)
// must exist, so a gate cannot outlive the code that carries it.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"unicode"
)

type benchCase struct {
	// Single-machine schema.
	EventSimPerWall float64 `json:"event_sim_s_per_wall_s"`
	TickSimPerWall  float64 `json:"tick_sim_s_per_wall_s"`
	Speedup         float64 `json:"speedup"`
	// Fleet schema.
	Machines          int     `json:"machines"`
	MachineSimPerWall float64 `json:"machine_sim_s_per_wall_s"`
	// Ingest schema.
	PointsPerSec   float64 `json:"points_per_s"`
	NsPerPoint     float64 `json:"ns_per_point"`
	AllocsPerPoint float64 `json:"allocs_per_point"`
	// Serving schema (hetpapiload).
	Requests      int     `json:"requests"`
	QPS           float64 `json:"qps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	ErrorPct      float64 `json:"error_pct"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	OverheadRatio float64 `json:"overhead_ratio"`
}

// throughput returns the case's headline figure under any schema.
func (c benchCase) throughput() float64 {
	if c.QPS > 0 {
		return c.QPS
	}
	if c.PointsPerSec > 0 {
		return c.PointsPerSec
	}
	if c.MachineSimPerWall > 0 {
		return c.MachineSimPerWall
	}
	return c.EventSimPerWall
}

type benchFile struct {
	ID           string `json:"id"`
	Benchmark    string `json:"benchmark"`
	Metric       string `json:"metric"`
	SeedBaseline struct {
		SimPerWall float64 `json:"sim_s_per_wall_s"`
	} `json:"seed_baseline"`
	Cases map[string]benchCase `json:"cases"`
	Gate  struct {
		Case              string  `json:"case"`
		MinSpeedup        float64 `json:"min_speedup"`
		MinThroughput     float64 `json:"min_throughput"`
		MaxAllocsPerPoint float64 `json:"max_allocs_per_point"`
		MinQPS            float64 `json:"min_qps"`
		MaxP99Ms          float64 `json:"max_p99_ms"`
		MaxOverheadRatio  float64 `json:"max_overhead_ratio"`
	} `json:"gate"`
}

func TestBenchTrajectory(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json trajectory files committed")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var bf benchFile
			if err := json.Unmarshal(raw, &bf); err != nil {
				t.Fatalf("%s does not parse: %v", path, err)
			}
			if bf.ID == "" || bf.Benchmark == "" || bf.Metric == "" {
				t.Fatalf("%s missing id/benchmark/metric", path)
			}
			cited, err := citedPaths(raw)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range cited {
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s cites %s, which does not exist", path, p)
				}
			}
			if len(bf.Cases) == 0 {
				t.Fatalf("%s has no cases", path)
			}
			for name, c := range bf.Cases {
				switch {
				case c.QPS > 0:
					// Serving schema: quantiles must be ordered, the error
					// rate a valid percentage, and the request count and
					// allocation figure present.
					if c.Requests <= 0 {
						t.Errorf("case %s: serving figures without a request count: %+v", name, c)
					}
					if !(c.P50Ms > 0 && c.P50Ms <= c.P99Ms) {
						t.Errorf("case %s: serving quantiles disordered: p50 %.2f p99 %.2f", name, c.P50Ms, c.P99Ms)
					}
					if c.ErrorPct < 0 || c.ErrorPct > 100 {
						t.Errorf("case %s: error_pct %.2f outside [0,100]", name, c.ErrorPct)
					}
					if c.AllocsPerOp <= 0 {
						t.Errorf("case %s: serving figures without allocs_per_op: %+v", name, c)
					}
				case c.NsPerPoint > 0:
					// Ingest schema: points/s and ns/point must agree to
					// within rounding, and the population size must be
					// recorded.
					if c.Machines <= 0 {
						t.Errorf("case %s: ingest figures without a machine count: %+v", name, c)
					}
					if c.PointsPerSec > 0 {
						if implied := 1e9 / c.NsPerPoint; c.PointsPerSec < implied*0.98 || c.PointsPerSec > implied*1.02 {
							t.Errorf("case %s: points_per_s %.0f inconsistent with ns_per_point %.1f (implies %.0f)",
								name, c.PointsPerSec, c.NsPerPoint, implied)
						}
					}
				case c.MachineSimPerWall > 0:
					// Fleet schema: the case must record its fleet size.
					if c.Machines <= 0 {
						t.Errorf("case %s: fleet throughput without a machine count: %+v", name, c)
					}
				case c.EventSimPerWall > 0 && c.TickSimPerWall > 0:
					ratio := c.EventSimPerWall / c.TickSimPerWall
					if c.Speedup > 0 && (ratio < c.Speedup*0.98 || ratio > c.Speedup*1.02) {
						t.Errorf("case %s: recorded speedup %.2f inconsistent with event/tick = %.2f",
							name, c.Speedup, ratio)
					}
				default:
					t.Errorf("case %s: neither schema's figures are positive: %+v", name, c)
				}
			}
			if bf.Gate.Case != "" {
				c, ok := bf.Cases[bf.Gate.Case]
				if !ok {
					t.Fatalf("gate case %q not in cases", bf.Gate.Case)
				}
				if bf.Gate.MinSpeedup > 0 {
					if c.TickSimPerWall <= 0 {
						t.Fatalf("gate: min_speedup on a case without a tick figure: %+v", c)
					}
					if ratio := c.EventSimPerWall / c.TickSimPerWall; ratio < bf.Gate.MinSpeedup {
						t.Errorf("gate: %s event/tick = %.2fx, below the committed %.1fx floor",
							bf.Gate.Case, ratio, bf.Gate.MinSpeedup)
					}
				}
				if bf.Gate.MaxAllocsPerPoint > 0 && c.AllocsPerPoint > bf.Gate.MaxAllocsPerPoint {
					t.Errorf("gate: %s allocs/point %.1f above the committed %.1f ceiling",
						bf.Gate.Case, c.AllocsPerPoint, bf.Gate.MaxAllocsPerPoint)
				}
				if bf.Gate.MinQPS > 0 && c.QPS < bf.Gate.MinQPS {
					t.Errorf("gate: %s qps %.1f below the committed %.1f floor",
						bf.Gate.Case, c.QPS, bf.Gate.MinQPS)
				}
				if bf.Gate.MaxP99Ms > 0 && c.P99Ms > bf.Gate.MaxP99Ms {
					t.Errorf("gate: %s p99 %.2fms above the committed %.1fms ceiling",
						bf.Gate.Case, c.P99Ms, bf.Gate.MaxP99Ms)
				}
				if bf.Gate.MaxOverheadRatio > 0 {
					if c.OverheadRatio <= 0 {
						t.Fatalf("gate: max_overhead_ratio on a case without an overhead figure: %+v", c)
					}
					if c.OverheadRatio > bf.Gate.MaxOverheadRatio {
						t.Errorf("gate: %s instrumented/bare overhead %.3fx above the committed %.2fx ceiling",
							bf.Gate.Case, c.OverheadRatio, bf.Gate.MaxOverheadRatio)
					}
				}
				if bf.Gate.MinThroughput > 0 && c.throughput() < bf.Gate.MinThroughput {
					t.Errorf("gate: %s throughput %.1f below the committed %.1f floor",
						bf.Gate.Case, c.throughput(), bf.Gate.MinThroughput)
				}
				if seed := bf.SeedBaseline.SimPerWall; seed > 0 && c.throughput() < seed {
					t.Errorf("gate: throughput %.1f regressed below the seed baseline %.1f",
						c.throughput(), seed)
				}
			}
		})
	}
}

// citedPaths returns the repo paths cited anywhere in a BENCH file's
// string values, sorted: every slash-separated token whose first element
// is a top-level directory of the repo, and every bare Go file name.
// Other slashed tokens ("linux/amd64", "ns/point") are not paths.
func citedPaths(raw []byte) ([]string, error) {
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	notPath := func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r) && !strings.ContainsRune("_./-", r)
	}
	var out []string
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for _, x := range v {
				walk(x)
			}
		case []any:
			for _, x := range v {
				walk(x)
			}
		case string:
			for _, tok := range strings.FieldsFunc(v, notPath) {
				tok = strings.TrimRight(tok, "./")
				first, _, nested := strings.Cut(tok, "/")
				if nested {
					if fi, err := os.Stat(first); err == nil && fi.IsDir() {
						out = append(out, tok)
					}
				} else if strings.HasSuffix(tok, ".go") {
					out = append(out, tok)
				}
			}
		}
	}
	walk(doc)
	sort.Strings(out)
	return out, nil
}
