package hetpapi

// Microbenchmarks for the measurement-path costs the paper's section V.5
// worries about (single-PMU vs multi-PMU reads, rdpmc, multiplexing,
// start/stop), the simulator tick, the scenario harness, the telemetry
// store and the span tracer and profiler. The paper's tables and figures
// are regenerated by cmd/hplbench and cmd/papihet, not here.
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"hetpapi/internal/core"
	"hetpapi/internal/events"
	"hetpapi/internal/hw"
	"hetpapi/internal/perfevent"
	"hetpapi/internal/pfmlib"
	"hetpapi/internal/profile"
	"hetpapi/internal/scenario"
	"hetpapi/internal/sim"
	"hetpapi/internal/spantrace"
	"hetpapi/internal/sysfs"
	"hetpapi/internal/telemetry"
	"hetpapi/internal/workload"
)

var printOnce sync.Map

// printHeader prints a benchmark's report title once per process and
// reports whether the caller should print the report.
func printHeader(key, title string) bool {
	if _, loaded := printOnce.LoadOrStore(key, true); loaded {
		return false
	}
	fmt.Printf("\n===== %s =====\n", title)
	return true
}

// ---------------------------------------------------------------------------
// Microbenchmarks: the real (Go-level) latency of the measurement paths.

type benchRig struct {
	s    *sim.Machine
	lib  *core.Library
	es   *core.EventSet
	spin *workload.Spin
	pid  int
}

func newRig(b *testing.B, names []string, multiplex bool) *benchRig {
	b.Helper()
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	lib, err := core.Init(s, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	spin := workload.NewSpin("w", 1e12)
	p := s.Spawn(spin, hw.NewCPUSet(0))
	es := lib.CreateEventSet()
	if err := es.Attach(p.PID); err != nil {
		b.Fatal(err)
	}
	if multiplex {
		if err := es.SetMultiplex(); err != nil {
			b.Fatal(err)
		}
	}
	for _, n := range names {
		if err := es.AddNamed(n); err != nil {
			b.Fatal(err)
		}
	}
	if err := es.Start(); err != nil {
		b.Fatal(err)
	}
	s.RunFor(0.05)
	return &benchRig{s: s, lib: lib, es: es, spin: spin, pid: p.PID}
}

var singlePMUNames = []string{
	"adl_glc::INST_RETIRED:ANY", "adl_glc::CPU_CLK_UNHALTED:THREAD",
}

var multiPMUNames = []string{
	"adl_glc::INST_RETIRED:ANY", "adl_glc::CPU_CLK_UNHALTED:THREAD",
	"adl_grt::INST_RETIRED:ANY", "adl_grt::CPU_CLK_UNHALTED:CORE",
}

// BenchmarkReadSinglePMU measures EventSet.Read on a one-group set.
func BenchmarkReadSinglePMU(b *testing.B) {
	rig := newRig(b, singlePMUNames, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.es.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadMultiPMU measures EventSet.Read on a hybrid two-group set —
// the extra indirection of section IV.E.
func BenchmarkReadMultiPMU(b *testing.B) {
	rig := newRig(b, multiPMUNames, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.es.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFastRdpmc measures the rdpmc user-space read path.
func BenchmarkReadFastRdpmc(b *testing.B) {
	rig := newRig(b, multiPMUNames, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.es.ReadFast(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadMultiplexed measures Read on a 14-event multiplexed set.
func BenchmarkReadMultiplexed(b *testing.B) {
	names := []string{
		"adl_glc::INST_RETIRED:ANY", "adl_glc::CPU_CLK_UNHALTED:THREAD",
		"adl_glc::BR_INST_RETIRED:ALL_BRANCHES", "adl_glc::BR_MISP_RETIRED:ALL_BRANCHES",
		"adl_glc::LONGEST_LAT_CACHE:REFERENCE", "adl_glc::LONGEST_LAT_CACHE:MISS",
		"adl_glc::MEM_INST_RETIRED:ALL_LOADS", "adl_glc::MEM_INST_RETIRED:ALL_STORES",
		"adl_glc::CYCLE_ACTIVITY:STALLS_TOTAL", "adl_glc::UOPS_RETIRED:SLOTS",
		"adl_glc::TOPDOWN:SLOTS", "adl_glc::DTLB_LOAD_MISSES:WALK_COMPLETED",
		"adl_glc::RESOURCE_STALLS:ANY", "adl_glc::INST_RETIRED:NOP",
	}
	rig := newRig(b, names, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.es.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStartStopMultiPMU measures the start/stop caliper cost of a
// hybrid EventSet (open + enable per group, read + disable per group).
func BenchmarkStartStopMultiPMU(b *testing.B) {
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	lib, err := core.Init(s, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p := s.Spawn(workload.NewSpin("w", 1e12), hw.NewCPUSet(0))
	es := lib.CreateEventSet()
	es.Attach(p.PID)
	for _, n := range multiPMUNames {
		if err := es.AddNamed(n); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := es.Start(); err != nil {
			b.Fatal(err)
		}
		if _, err := es.Stop(); err != nil {
			b.Fatal(err)
		}
		if err := es.Cleanup(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfEventOpenClose measures raw kernel open/close.
func BenchmarkPerfEventOpenClose(b *testing.B) {
	k := perfevent.NewKernel(hw.RaptorLake())
	def := events.LookupPMU("adl_glc").Lookup("INST_RETIRED")
	attr := perfevent.Attr{Type: 8, Config: events.Encode(def.Code, def.DefaultUmask().Bits)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd, err := k.Open(attr, 100, -1, -1)
		if err != nil {
			b.Fatal(err)
		}
		if err := k.Close(fd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelTaskExec measures the hot counting path: one execution
// report against 8 open events.
func BenchmarkKernelTaskExec(b *testing.B) {
	k := perfevent.NewKernel(hw.RaptorLake())
	def := events.LookupPMU("adl_glc").Lookup("INST_RETIRED")
	attr := perfevent.Attr{Type: 8, Config: events.Encode(def.Code, def.DefaultUmask().Bits)}
	for i := 0; i < 8; i++ {
		if _, err := k.Open(attr, 100, -1, -1); err != nil {
			b.Fatal(err)
		}
	}
	st := events.Stats{Instructions: 1e6, Cycles: 5e5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.TaskExec(100, 0, 0.001, st)
	}
}

// BenchmarkSimTick measures one simulator step with a full 16-thread HPL.
func BenchmarkSimTick(b *testing.B) {
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	h, err := workload.NewHPL(workload.HPLConfig{
		N: 57024, NB: 192, Threads: 16, Strategy: workload.IntelMKL(), Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i, task := range h.Threads() {
		s.Spawn(task, hw.NewCPUSet(hw.RaptorLake().FirstCPUPerCore()[i]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkScenarioHarness measures a full audited run of the smallest
// reference scenario: boot, workload spawn, per-tick checking of the
// standard invariant library, wide-event collection and digesting.
func BenchmarkScenarioHarness(b *testing.B) {
	var spec scenario.Spec
	for _, s := range scenario.Reference() {
		if s.Name == "homogeneous-powercap" {
			spec = s
		}
	}
	if spec.Name == "" {
		b.Fatal("reference scenario homogeneous-powercap not found")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioInvariantTick isolates the per-tick cost of the
// standard invariant checks against the raw simulator step measured by
// BenchmarkSimTick: same machine and workload, run through the harness.
func BenchmarkScenarioInvariantTick(b *testing.B) {
	spec := scenario.Spec{
		Name:    "bench-invariant-tick",
		Machine: "raptorlake",
		Workloads: []scenario.WorkloadSpec{{
			Kind: scenario.WorkloadSpin, Name: "spin", Seconds: 3600,
		}},
		MaxSeconds: float64(b.N) * 0.001,
	}
	b.ResetTimer()
	if _, err := scenario.Run(spec); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParseEvent measures libpfm4-style event parsing.
func BenchmarkParseEvent(b *testing.B) {
	l, err := pfmlib.New(hw.RaptorLake())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.ParseEvent("adl_grt::INST_RETIRED:ANY:u"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSysfsDetect measures the PMU-scan core detection heuristic.
func BenchmarkSysfsDetect(b *testing.B) {
	f := sysfs.New(hw.RaptorLake(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sysfs.DetectByPMU(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHPLThreadRun measures one workload execution slice.
func BenchmarkHPLThreadRun(b *testing.B) {
	h, err := workload.NewHPL(workload.HPLConfig{
		N: 57024, NB: 192, Threads: 1, Strategy: workload.OpenBLASx86(), Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := hw.RaptorLake()
	t := m.TypeByName("P-core")
	ctx := &workload.ExecContext{CPU: 0, Type: t, FreqMHz: 3000, Throughput: 1}
	task := h.Threads()[0]
	var st events.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task.Run(ctx, 0.001, &st)
	}
}

// ---------------------------------------------------------------------------
// Telemetry serving-layer benchmarks: the internal/telemetry store
// behind hetpapid.

// BenchmarkTelemetryIngest measures parallel samples/sec into the sharded
// store, 1 shard vs 8, each writer goroutine feeding its own series (the
// daemon's one-collector-per-machine shape).
func BenchmarkTelemetryIngest(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st := telemetry.NewStore(telemetry.Config{Capacity: 4096, Shards: shards})
			var writer atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				k := telemetry.Key{Machine: "m", Series: fmt.Sprintf("s%d", writer.Add(1))}
				t := 0.0
				for pb.Next() {
					st.Append(k, t, t)
					t++
				}
			})
		})
	}
}

// BenchmarkTelemetryAggregate measures the streaming aggregate read path
// (the /query?agg=1 hot core) against a full series.
func BenchmarkTelemetryAggregate(b *testing.B) {
	st := telemetry.NewStore(telemetry.Config{Capacity: 4096})
	k := telemetry.Key{Machine: "m", Series: "power_w"}
	for i := 0; i < 10000; i++ {
		st.Append(k, float64(i), float64(i%97))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Aggregate(k); !ok {
			b.Fatal("series missing")
		}
	}
}

// BenchmarkTelemetryQueryUnderLoad measures /query HTTP latency while
// writer goroutines keep ingesting — the daemon's live-read contention
// case.
func BenchmarkTelemetryQueryUnderLoad(b *testing.B) {
	st := telemetry.NewStore(telemetry.Config{Capacity: 4096, Shards: 8})
	srv := telemetry.NewServer(st, 0)
	for cpu := 0; cpu < 8; cpu++ {
		k := telemetry.Key{Machine: "m", Series: telemetry.CounterSeriesName(cpu, "P-core", "instructions")}
		for i := 0; i < 4096; i++ {
			st.Append(k, float64(i), float64(i))
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			k := telemetry.Key{Machine: "m", Series: telemetry.CounterSeriesName(w, "P-core", "instructions")}
			t := 4096.0
			for {
				select {
				case <-stop:
					return
				default:
					st.Append(k, t, t)
					t++
				}
			}
		}(w)
	}
	// Two query shapes: the aggregate path and the raw-points path (the
	// latter is where the pooled copy-on-read buffer earns its keep —
	// allocs/op here is the figure the pool is gated on).
	series := telemetry.CounterSeriesName(0, "P-core", "instructions")
	for name, url := range map[string]string{
		"agg": ts.URL + "/query?machine=m&series=" + series + "&agg=1",
		"raw": ts.URL + "/query?machine=m&series=" + series,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					resp, err := http.Get(url)
					if err != nil {
						b.Error(err)
						return
					}
					if resp.StatusCode != 200 {
						b.Errorf("status %d", resp.StatusCode)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			})
		})
	}
	close(stop)
	writers.Wait()
}

// ---------------------------------------------------------------------------
// Span-trace benchmarks: the recorder's self-overhead contract. The
// tick benchmarks measure the same machine+workload under four tracing
// states; the acceptance bar is that an attached-but-disabled recorder
// adds < 5% to the baseline tick cost (every instrumentation site is a
// nil check plus one atomic load).

// traceTickRig is the monitoring-loop rig the tick benchmarks share:
// Raptor Lake running a pinned spin task with a started hybrid (two
// perf-group) EventSet. One "tick" is a simulator step plus an EventSet
// read — the per-sample work of the paper's monitoring loops, touching
// the sched-hook, syscall and read-quality instrumentation sites.
func traceTickRig(b *testing.B) (*sim.Machine, *core.EventSet) {
	b.Helper()
	rig := newRig(b, multiPMUNames, false)
	return rig.s, rig.es
}

// tickNs times b.N step+read ticks and returns the mean ns/tick.
func tickNs(b *testing.B, s *sim.Machine, es *core.EventSet) float64 {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		if _, err := es.Read(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return float64(b.Elapsed().Nanoseconds()) / float64(b.N)
}

// BenchmarkSpantraceTick measures per-tick monitoring cost across
// tracing states:
//
//	baseline   no recorder ever attached
//	disabled   recorder attached, Enable never called
//	enabled    recorder attached and recording
//	exporting  recording, plus a Perfetto JSON export every 1024 ticks
//
// The disabled/baseline and enabled/disabled ratios are reported as
// benchmark metrics (acceptance: disabled adds < 5%), and the report
// prints once at the end.
func BenchmarkSpantraceTick(b *testing.B) {
	var baselineNs, disabledNs, enabledNs float64
	var enabledOvh spantrace.OverheadReport
	b.Run("baseline", func(b *testing.B) {
		s, es := traceTickRig(b)
		baselineNs = tickNs(b, s, es)
	})
	b.Run("disabled", func(b *testing.B) {
		s, es := traceTickRig(b)
		s.SetTracer(spantrace.New(spantrace.Config{}))
		disabledNs = tickNs(b, s, es)
		if baselineNs > 0 {
			b.ReportMetric(disabledNs/baselineNs, "x-baseline")
		}
	})
	b.Run("enabled", func(b *testing.B) {
		s, es := traceTickRig(b)
		rec := spantrace.New(spantrace.Config{})
		rec.Enable()
		s.SetTracer(rec)
		enabledNs = tickNs(b, s, es)
		enabledOvh = rec.Overhead()
		if disabledNs > 0 {
			b.ReportMetric(enabledNs/disabledNs, "x-disabled")
		}
	})
	b.Run("exporting", func(b *testing.B) {
		s, es := traceTickRig(b)
		rec := spantrace.New(spantrace.Config{})
		rec.Enable()
		s.SetTracer(rec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
			if _, err := es.Read(); err != nil {
				b.Fatal(err)
			}
			if i%1024 == 1023 {
				if err := spantrace.WriteJSON(io.Discard, rec.Snapshot()); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		if printHeader("spantrace-ovh", "Span-trace recorder self-overhead") {
			fmt.Printf("tick ns: baseline %.0f, disabled %.0f, enabled %.0f\n",
				baselineNs, disabledNs, enabledNs)
			fmt.Printf("disabled/baseline %.3f (acceptance: < 1.05), enabled/disabled %.3f\n",
				disabledNs/baselineNs, enabledNs/disabledNs)
			fmt.Printf("enabled run emitted %d, retained %d, dropped %d, %d bytes retained\n",
				enabledOvh.SpansEmitted, enabledOvh.SpansRetained,
				enabledOvh.SpansDropped, enabledOvh.BytesRetained)
		}
	})
}

// BenchmarkProfilerTick measures per-tick monitoring cost with the
// statistical profiler attached, against the same baseline rig as
// BenchmarkSpantraceTick:
//
//	baseline   no profiler
//	enabled    collector attached to the spin pid, default drain cadence
//
// The enabled/baseline ratio is reported as a benchmark metric
// (acceptance: < 1.10), and the report prints once at the end.
func BenchmarkProfilerTick(b *testing.B) {
	var baselineNs, enabledNs float64
	var ovh profile.OverheadReport
	b.Run("baseline", func(b *testing.B) {
		s, es := traceTickRig(b)
		baselineNs = tickNs(b, s, es)
	})
	b.Run("enabled", func(b *testing.B) {
		rig := newRig(b, multiPMUNames, false)
		col := profile.NewCollector(rig.s, profile.Config{})
		defer col.Close()
		remove := rig.s.AddStepHook(col.SimHook())
		defer remove()
		col.Attach(rig.pid)
		enabledNs = tickNs(b, rig.s, rig.es)
		ovh = col.Overhead()
		if baselineNs > 0 {
			b.ReportMetric(enabledNs/baselineNs, "x-baseline")
		}
	})
	// Print after both sub-benchmarks settle so the report reflects the
	// final timed runs, not the N=1 warm-up.
	if baselineNs > 0 && enabledNs > 0 &&
		printHeader("profiler-ovh", "Statistical profiler self-overhead") {
		fmt.Printf("tick ns: baseline %.0f, profiled %.0f, ratio %.3f (acceptance: < 1.10)\n",
			baselineNs, enabledNs, enabledNs/baselineNs)
		fmt.Println(ovh.String())
	}
}

// BenchmarkProfilerDrain isolates the periodic ring-drain cost: 16 rings
// on a 16-thread HPL, one Drain per iteration after a simulator step
// feeds the rings.
func BenchmarkProfilerDrain(b *testing.B) {
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	h, err := workload.NewHPL(workload.HPLConfig{
		N: 57024, NB: 192, Threads: 16, Strategy: workload.IntelMKL(), Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	col := profile.NewCollector(s, profile.Config{})
	defer col.Close()
	for i, task := range h.Threads() {
		p := s.Spawn(task, hw.NewCPUSet(hw.RaptorLake().FirstCPUPerCore()[i]))
		col.Attach(p.PID)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		col.Drain()
	}
}

// BenchmarkSpantraceDisabledSite isolates one instrumentation site's
// fast path: the Enabled gate on nil and disabled recorders.
func BenchmarkSpantraceDisabledSite(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var rec *spantrace.Recorder
		for i := 0; i < b.N; i++ {
			if rec.Enabled() {
				b.Fatal("nil recorder enabled")
			}
		}
	})
	b.Run("disabled", func(b *testing.B) {
		rec := spantrace.New(spantrace.Config{})
		for i := 0; i < b.N; i++ {
			if rec.Enabled() {
				b.Fatal("recorder enabled")
			}
		}
	})
}

// BenchmarkSpantraceEmit measures the enabled emit path, including the
// steady-state ring-wraparound case (capacity far below b.N, so every
// push evicts the oldest event).
func BenchmarkSpantraceEmit(b *testing.B) {
	b.Run("instant", func(b *testing.B) {
		rec := spantrace.New(spantrace.Config{TrackCapacity: 1 << 16})
		rec.Enable()
		trk := rec.Track("bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Instant(trk, "sys.read", "syscall", float64(i), spantrace.Int("fd", 3))
		}
	})
	b.Run("wraparound", func(b *testing.B) {
		rec := spantrace.New(spantrace.Config{TrackCapacity: 64})
		rec.Enable()
		trk := rec.Track("bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Instant(trk, "sys.read", "syscall", float64(i), spantrace.Int("fd", 3))
		}
		b.StopTimer()
		if st := rec.Stats(); b.N > 64 && st.Dropped == 0 {
			b.Fatal("expected wrap drops")
		}
	})
	b.Run("span-args", func(b *testing.B) {
		rec := spantrace.New(spantrace.Config{TrackCapacity: 1 << 16})
		rec.Enable()
		trk := rec.Track("bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Span(trk, "hpl", "exec", float64(i), 0.001,
				spantrace.Int("pid", 1000),
				spantrace.Str("core_type", "P-core"),
				spantrace.Str("class", "performance"))
		}
	})
}
