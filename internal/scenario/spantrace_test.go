package scenario_test

import (
	"testing"

	"hetpapi/internal/scenario"
	"hetpapi/internal/spantrace"
)

// refSpec fetches a reference scenario by name.
func refSpec(t *testing.T, name string) scenario.Spec {
	t.Helper()
	for _, spec := range scenario.Reference() {
		if spec.Name == name {
			return spec
		}
	}
	t.Fatalf("no reference scenario %q", name)
	return scenario.Spec{}
}

// tracedRun runs a reference scenario with a recorder attached and
// returns the snapshot. Durations in the trace carry wall-clock args
// (syscall service times), so assertions here stick to event names,
// categories and ordering — the deterministic part.
func tracedRun(t *testing.T, name string) (*scenario.Result, *spantrace.Snapshot) {
	t.Helper()
	spec := refSpec(t, name)
	rec := spantrace.New(spantrace.Config{TrackCapacity: 1 << 15})
	rec.Enable()
	spec.Tracer = rec
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Snapshot()
}

// eventNames flattens the snapshot into time-ordered event names.
func eventNames(snap *spantrace.Snapshot) []string {
	out := make([]string, len(snap.Events))
	for i := range snap.Events {
		out[i] = snap.Events[i].Name
	}
	return out
}

// assertSubsequence checks that want appears in names in order (not
// necessarily adjacent).
func assertSubsequence(t *testing.T, names, want []string) {
	t.Helper()
	i := 0
	for _, n := range names {
		if i < len(want) && n == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("span sequence missing %q (matched %d of %v)", want[i], i, want)
	}
}

func count(names []string, name string) int {
	n := 0
	for _, s := range names {
		if s == name {
			n++
		}
	}
	return n
}

// TestTracedRunKeepsGoldenDigest pins the core guarantee: attaching a
// recorder is pure observation and must not change the run's behavior
// digest versus the committed golden trace.
func TestTracedRunKeepsGoldenDigest(t *testing.T) {
	res, _ := tracedRun(t, "biglittle-hotplug")
	golden, err := scenario.LoadGolden(scenario.GoldenPath("testdata/golden", res.Name))
	if err != nil {
		t.Fatal(err)
	}
	if diff := golden.Diff(scenario.GoldenOf(res)); diff != "" {
		t.Fatalf("tracing changed the run's golden digest:\n%s", diff)
	}
}

// TestHotplugFaultSpanSequence asserts the expected cross-layer span
// story of the biglittle-hotplug golden scenario: the t=0 counter steal
// holds the LITTLE watchdog so the probe's start defers with EBUSY;
// after the release the start succeeds; then CPU 1 is hotplugged off
// and back on.
func TestHotplugFaultSpanSequence(t *testing.T) {
	res, snap := tracedRun(t, "biglittle-hotplug")
	if !res.Completed {
		t.Fatalf("scenario did not complete: %+v", res.Violations)
	}
	names := eventNames(snap)
	assertSubsequence(t, names, []string{
		"run.start",
		"inject.counter-steal",
		"fault.watchdog-hold",
		"degrade.deferred-start",
		"inject.counter-release",
		"fault.watchdog-release",
		"papi.start",
		"inject.hotplug-off",
		"fault.hotplug-off",
		"inject.hotplug-on",
		"fault.hotplug-on",
	})
	if count(names, "papi.start") == 0 {
		t.Fatal("no papi.start span")
	}
	if got := count(names, "workload.spawn"); got != 1 {
		t.Errorf("workload.spawn count = %d, want 1", got)
	}
	// The run-level span closes the scenario track.
	if got := count(names, "run "+res.Name); got != 1 {
		t.Errorf("run span count = %d, want 1", got)
	}
	// Every event of the run carries its trace context.
	var ctx uint64
	for id, name := range snap.Contexts {
		if name == res.Name {
			ctx = id
		}
	}
	if ctx == 0 {
		t.Fatalf("no trace context named %q: %v", res.Name, snap.Contexts)
	}
	for i := range snap.Events {
		if snap.Events[i].Ctx != ctx {
			t.Fatalf("event %q at %v carries ctx %d, want %d",
				snap.Events[i].Name, snap.Events[i].StartSec, snap.Events[i].Ctx, ctx)
		}
	}
}

// TestWatchdogStealSpanSequence asserts the raptorlake watchdog-steal
// scenario's trace: a mid-run steal holds the P-core watchdog while
// the multiplexed probe is already running, and releases later. The
// run is shortened past the release (steal at 1.5s + 2s hold) so the
// t=0 open syscalls survive the kernel ring's wraparound window.
func TestWatchdogStealSpanSequence(t *testing.T) {
	spec := refSpec(t, "raptorlake-watchdog-steal")
	spec.MaxSeconds = 5
	rec := spantrace.New(spantrace.Config{TrackCapacity: 1 << 15})
	rec.Enable()
	spec.Tracer = rec
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	names := eventNames(snap)
	assertSubsequence(t, names, []string{
		"run.start",
		"papi.start",
		"inject.counter-steal",
		"fault.watchdog-hold",
		"fault.watchdog-release",
	})
	// The run-level span starts at t=0, so it sorts near the head of
	// the snapshot rather than the tail; assert presence, not order.
	if got := count(names, "run "+res.Name); got != 1 {
		t.Errorf("run span count = %d, want 1", got)
	}
	// During the steal the probe's cycles groups stop scheduling, so
	// the multiplexed reads turn into time-scaled estimates: the
	// read-quality transition must flip to degraded.
	if count(names, "papi.read.degraded") == 0 {
		t.Error("no papi.read.degraded transition")
	}
	// Syscall instants land on the kernel track with errno args. The
	// audit reads only the counters that changed, but each busy tick the
	// 4 HPL CPUs change 16 of them and the probe reads its groups: that
	// flood still wraps the kernel ring well past the t=0 opens, so
	// assert on reads — the traffic that is always retained.
	sawRead := false
	for i := range snap.Events {
		ev := &snap.Events[i]
		if ev.Name == "sys.read" && ev.Cat == "syscall" {
			sawRead = true
			break
		}
	}
	if !sawRead {
		t.Error("no sys.read syscall instants recorded")
	}
	// The wraparound itself must be accounted: the kernel track's drop
	// counter is what the self-overhead report surfaces.
	if snap.Dropped["kernel"] == 0 {
		t.Error("kernel track flood did not record wrap drops")
	}
}
