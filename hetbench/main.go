// Command hetbench is the hetpapi benchmark. One invocation runs one
// workload from a seed, checks the workload's outputs, and prints its
// metrics by name and unit; the last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end figures, measured with
// every benchmark-side probe that is not needed for them switched off.
// With --trace 1 a separate traced pass splits the same work by layer
// (sim, perfevent, core, scenario, fleet, telemetry) and prints the
// per-layer figures instead; spans recorded around the calls into each
// layer are written once at exit as a Chrome trace.
//
// Usage (from the repository root):
//
//	bash hetbench/run.sh --workload paper-hpl|fleet-stream|serve-mix \
//	    --seed N --seconds S --trace 0|1
//
// BENCHMARK.md in this directory describes the workloads, the metric
// definitions and which layer metric should move which end-to-end one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"hetpapi/internal/spantrace"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the figures a user of the system sees, reported by every
// workload with --trace 0. BENCHMARK.md defines each one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"latency_ms", "ms"},
	{"heap_peak_mb", "MB"},
}

// invariantNames are the scenario.Standard() invariants, in audit order.
var invariantNames = []string{
	"time-monotonic", "counter-monotonic", "energy-conservation",
	"core-type-isolation", "sched-affinity", "freq-envelope",
	"thermal-bounds", "power-sanity", "reads-monotonic", "scale-bounded",
}

// httpEndpoints are the accounting names of the serve-mix endpoints.
var httpEndpoints = []string{"query", "series", "fleet_query", "metrics", "status", "health"}

// perLayer are the traced figures, reported by every workload with
// --trace 1. A layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.tick_us.p50", "us"},
		{"scenario.tick_us.mean", "us"},
		{"scenario.audit_us", "us"},
	}
	for _, inv := range invariantNames {
		defs = append(defs, metricDef{"scenario.audit." + inv + "_ns", "ns"})
	}
	defs = append(defs,
		metricDef{"scenario.hooks_us", "us"},
		metricDef{"sim.step_us", "us"},
		metricDef{"sim.busy_frac", "fraction"},
		metricDef{"scenario.allocs_per_tick", "count"},
		metricDef{"core.read_us", "us"},
		metricDef{"core.read_allocs", "count"},
		metricDef{"perfevent.exec_ns", "ns"},
		metricDef{"perfevent.read_ns", "ns"},
		metricDef{"fleet.clone_us", "us"},
		metricDef{"scenario.boot_ms", "ms"},
		metricDef{"fleet.machine_ms.p50", "ms"},
		metricDef{"fleet.machine_ms.p99", "ms"},
		metricDef{"fleet.allocs_per_machine", "count"},
		metricDef{"fleet.alloc_kb_per_machine", "KB"},
		metricDef{"fleet.replay_closure_pct", "%"},
		metricDef{"fleet.stream_ns_per_point", "ns"},
		metricDef{"fleet.stream_points", "count"},
		metricDef{"fleet.anomaly_ms", "ms"},
		metricDef{"telemetry.append_ns", "ns"},
		metricDef{"telemetry.fleet_query_us", "us"},
		metricDef{"telemetry.aggregate_us", "us"},
		metricDef{"telemetry.snapshot_us", "us"},
	)
	for _, ep := range httpEndpoints {
		defs = append(defs,
			metricDef{"http." + ep + ".handler_ms.p50", "ms"},
			metricDef{"http." + ep + ".handler_ms.p99", "ms"})
	}
	return append(defs,
		metricDef{"http.wait_ms.p99", "ms"},
		metricDef{"http.bytes_per_req", "B"},
		metricDef{"http.allocs_per_req", "count"},
		metricDef{"loadgen.late_ms.p99", "ms"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run    func(*bench) error
	traced func(*bench) error
}{
	"paper-hpl":    {runPaperHPL, tracePaperHPL},
	"fleet-stream": {runFleetStream, traceFleetStream},
	"serve-mix":    {runServeMix, traceServeMix},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's state: its config, the figures and checks it
// has gathered, and the span recorder (nil with tracing off).
type bench struct {
	cfg               config
	log               io.Writer
	epoch             time.Time
	rec               *spantrace.Recorder
	values            map[string]float64
	failures          []string // failed output checks
	attempted, failed int64
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-hpl, fleet-stream or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "seconds of measured work")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "traced runs: span trace output path (default .bench_build/hetbench/spans-<workload>-<seed>.json)")
	flag.Parse()
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "hetbench: need --workload (paper-hpl, fleet-stream, serve-mix), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	b := &bench{cfg: cfg, log: os.Stdout, epoch: time.Now(), values: map[string]float64{}}
	prov := provenance(cfg)
	blob, _ := json.Marshal(prov)
	fmt.Fprintf(b.log, "provenance: %s\n", blob)

	run := w.run
	if cfg.trace {
		b.rec = spantrace.New(spantrace.Config{})
		b.rec.Enable()
		run = w.traced
	}
	err := run(b)
	if err != nil {
		b.fail("%s: %v", cfg.workload, err)
	}
	if cfg.trace {
		if err := b.writeSpans(); err != nil {
			b.fail("writing spans: %v", err)
		}
	}
	res := b.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetbench: encoding result:", err)
		os.Exit(1)
	}
	for _, m := range b.failures {
		fmt.Fprintln(b.log, "CHECK FAILED:", m)
	}
	fmt.Fprintln(b.log, string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// fail records a failed output check; the run then reports
// correct=false and exits non-zero.
func (b *bench) fail(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// check records a failed check unless ok holds.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.fail(format, args...)
	}
}

// note prints one informational line ahead of the result.
func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(b.log, b.cfg.workload+": "+format+"\n", args...)
}

// set records one metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// count adds operations to the attempted/failed tallies.
func (b *bench) count(attempted, failed int64) {
	b.attempted += attempted
	b.failed += failed
}

// result assembles the final line. Every metric of the mode's catalog is
// present: an unmeasured end-to-end metric is a failed check, an
// unexercised layer reports 0.
func (b *bench) result() result {
	defs := endToEnd
	if b.cfg.trace {
		defs = perLayer
	}
	res := result{Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok && !b.cfg.trace {
			b.fail("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail("metric %s is not finite", d.name)
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if b.attempted < 1 {
		b.fail("no operations attempted")
		b.attempted = 1
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = len(b.failures) == 0
	return res
}

// span records one benchmark-side span on a layer's track (no-op with
// tracing off) and returns its end time for chaining.
func (b *bench) span(track, name string, start time.Time) time.Time {
	end := time.Now()
	if b.rec.Enabled() {
		b.rec.Span(b.rec.Track(track), name, track, start.Sub(b.epoch).Seconds(), end.Sub(start).Seconds())
	}
	return end
}

func (b *bench) writeSpans() error {
	path := b.cfg.spans
	if path == "" {
		path = filepath.Join(".bench_build", "hetbench",
			fmt.Sprintf("spans-%s-%d.json", b.cfg.workload, b.cfg.seed))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := spantrace.WriteJSON(w, b.rec.Snapshot()); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "spans: %s\n", path)
	return nil
}

// provenanceInfo is printed before the result so every figure carries
// the host, toolchain, code version and exact command that produced it.
type provenanceInfo struct {
	CPU        string   `json:"cpu"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Command    []string `json:"command"`
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
}

func provenance(cfg config) provenanceInfo {
	p := provenanceInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Command:    os.Args,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the host CPU model name ("unknown" off Linux).
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
