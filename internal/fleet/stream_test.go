package fleet

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hetpapi/internal/telemetry"
)

// TestStreamingDeterminismSweep is the PR's acceptance property: with
// streaming AND anomaly detection enabled, the fleet report must stay
// byte-identical across worker counts, and the telemetry store the run
// filled must answer population queries identically too.
func TestStreamingDeterminismSweep(t *testing.T) {
	const n = 18
	var golden []byte
	var goldenQuery string
	for i, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		f := genTestFleet(t, n, 77)
		store := telemetry.NewStore(telemetry.Config{Capacity: 256, RungCapacity: 256})
		rc := RunConfig{
			Workers:  workers,
			Streamer: telemetry.NewStreamer(store, 0),
			Anomaly:  &AnomalyConfig{Threshold: 3.0, MinMachines: 4},
		}
		rep, err := Run(context.Background(), f, rc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != n {
			t.Fatalf("run %d (workers=%d): %d/%d machines completed", i, workers, rep.Completed, n)
		}
		js := reportJSON(t, rep)
		q, err := store.FleetQuery(telemetry.FleetQueryRequest{
			Rung: telemetry.Rung1s, FromSec: -1, ToSec: -1, Timeline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		qs := fmt.Sprintf("%+v", q)
		if golden == nil {
			golden, goldenQuery = js, qs
			continue
		}
		if !bytes.Equal(js, golden) {
			t.Fatalf("run %d (workers=%d): report diverged with streaming enabled", i, workers)
		}
		if qs != goldenQuery {
			t.Fatalf("run %d (workers=%d): fleet query over streamed store diverged", i, workers)
		}
	}
}

// streamTestFleet builds a fleet whose workloads span the whole
// simulated window: a machine's run stops ticking once its work
// completes, so cadence assertions need machines that stay busy to
// MaxSeconds.
func streamTestFleet(t *testing.T, n int, seed int64) *Fleet {
	t.Helper()
	tpls := testTemplates()
	for i := range tpls {
		for j := range tpls[i].Spec.Workloads {
			tpls[i].Spec.Workloads[j].Reps *= 5
		}
	}
	f, err := Generate(GenConfig{
		Machines: n, Seed: seed, Templates: tpls, StaggerSec: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStreamerPopulatesStore: a streamed run tags machine metadata,
// fills the machine-scalar and per-core-type series at the sampling
// cadence, measures its own cost, and exports the self-overhead series
// under the reserved "fleet" machine id.
func TestStreamerPopulatesStore(t *testing.T) {
	const n = 6
	f := streamTestFleet(t, n, 5)
	store := telemetry.NewStore(telemetry.Config{Capacity: 256, RungCapacity: 256})
	str := telemetry.NewStreamer(store, 0)
	rep, err := Run(context.Background(), f, RunConfig{Workers: 2, Streamer: str})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("%d/%d machines completed", rep.Completed, n)
	}

	sawType := false
	for i := range f.Machines {
		ms := &f.Machines[i]
		meta := store.Meta(ms.ID)
		if meta.Template != ms.Template || meta.Model != ms.Spec.Machine {
			t.Fatalf("machine %s meta %+v (template %s model %s)", ms.ID, meta, ms.Template, ms.Spec.Machine)
		}
		// Every machine samples the scalars while its workloads run (a
		// run stops ticking once its work completes, so short machines
		// legitimately stream few points — but never zero).
		agg, ok := store.Aggregate(telemetry.Key{Machine: ms.ID, Series: "power_w"})
		if !ok || agg.Count < 2 {
			t.Fatalf("machine %s power_w aggregate %+v", ms.ID, agg)
		}
		for _, series := range store.SeriesOf(ms.ID) {
			if strings.HasPrefix(series, "type/") {
				sawType = true
			}
		}
	}
	if !sawType {
		t.Fatal("no per-core-type counter series streamed")
	}

	// The longest-running machines sample on the template's 0.25s
	// cadence: at least 4 points, evenly spaced.
	cadenced := 0
	for i := range f.Machines {
		pts, _ := store.Snapshot(telemetry.Key{Machine: f.Machines[i].ID, Series: "power_w"})
		if len(pts) < 4 {
			continue
		}
		cadenced++
		for j := 1; j < len(pts); j++ {
			if dt := pts[j].TimeSec - pts[j-1].TimeSec; dt < 0.24 || dt > 0.26 {
				t.Fatalf("machine %s samples %g apart, want the 0.25s cadence", f.Machines[i].ID, dt)
			}
		}
	}
	if cadenced == 0 {
		t.Fatal("no machine ran long enough to demonstrate the sampling cadence")
	}
	if str.MaxSec() <= 0 {
		t.Fatalf("MaxSec = %g after a streamed run", str.MaxSec())
	}

	o := str.SelfOverhead()
	if o.Machines != n || o.Samples < int64(n)*2 || o.Points <= o.Samples {
		t.Fatalf("self-overhead %+v implausible for %d machines", o, n)
	}
	if o.IngestSec <= 0 || o.NsPerPoint <= 0 || o.PointsPerSec <= 0 {
		t.Fatalf("self-overhead cost gauges empty: %+v", o)
	}

	str.ExportOverhead(3)
	for _, series := range []string{
		"selfoverhead/points", "selfoverhead/samples", "selfoverhead/ingest_ms",
		"selfoverhead/ns_per_point", "selfoverhead/points_per_s", "selfoverhead/rejected",
	} {
		pts, ok := store.Snapshot(telemetry.Key{Machine: telemetry.OverheadMachine, Series: series})
		if !ok || len(pts) != 1 || pts[0].TimeSec != 3 {
			t.Fatalf("exported %s = %+v", series, pts)
		}
	}
	pts, _ := store.Snapshot(telemetry.Key{Machine: telemetry.OverheadMachine, Series: "selfoverhead/points"})
	if int64(pts[0].Value) != o.Points {
		t.Fatalf("exported points %g != gauge %d", pts[0].Value, o.Points)
	}
}

// TestStreamerBaseSecShiftsRounds: daemon loop mode reuses machine ids
// across rounds, so a second round streamed with base = MaxSec+1 must
// land strictly after the first round's samples.
func TestStreamerBaseSecShiftsRounds(t *testing.T) {
	f := genTestFleet(t, 3, 9)
	store := telemetry.NewStore(telemetry.Config{Capacity: 1024, RungCapacity: 256})

	s1 := telemetry.NewStreamer(store, 0)
	if _, err := Run(context.Background(), f, RunConfig{Workers: 2, Streamer: s1}); err != nil {
		t.Fatal(err)
	}
	round1Max := s1.MaxSec()
	if round1Max <= 0 {
		t.Fatal("first round streamed nothing")
	}

	s2 := telemetry.NewStreamer(store, 0)
	s2.SetBaseSec(round1Max + 1)
	if _, err := Run(context.Background(), f, RunConfig{Workers: 2, Streamer: s2}); err != nil {
		t.Fatal(err)
	}
	if s2.MaxSec() <= round1Max {
		t.Fatalf("second round MaxSec %g did not advance past %g", s2.MaxSec(), round1Max)
	}
	// The shared series stayed time-ordered across the round boundary.
	pts, ok := store.Snapshot(telemetry.Key{Machine: f.Machines[0].ID, Series: "power_w"})
	if !ok {
		t.Fatal("power_w series missing after two rounds")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TimeSec <= pts[i-1].TimeSec {
			t.Fatalf("series went back in time at %d: %g after %g", i, pts[i].TimeSec, pts[i-1].TimeSec)
		}
	}
}

// TestDetectAnomaliesFlagsSyntheticOutlier drives the detector with a
// hand-built population: eleven healthy machines and one drawing 10×
// the power. Only the outlier, only on the power feature.
func TestDetectAnomaliesFlagsSyntheticOutlier(t *testing.T) {
	const n = 12
	store := telemetry.NewStore(telemetry.Config{})
	f := &Fleet{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("m%04d", i)
		f.Machines = append(f.Machines, MachineSpec{ID: id, Index: i, Template: "tpl"})
		store.SetMeta(id, telemetry.MachineMeta{Template: "tpl"})
		power := 40 + 0.1*float64(i) // healthy spread, MAD > 0
		if i == 7 {
			power = 400 // the outlier
		}
		for tick := 0; tick < 20; tick++ {
			ts := float64(tick) / 2
			store.Append(telemetry.Key{Machine: id, Series: "power_w"}, ts, power)
			store.Append(telemetry.Key{Machine: id, Series: "temp_c"}, ts, 55+0.1*float64(i))
			store.Append(telemetry.Key{Machine: id, Series: "energy_j"}, ts, power*ts)
		}
	}

	got := DetectAnomalies(store, f, AnomalyConfig{Threshold: 4})
	// m0007 is an outlier on power directly and on the energy integral.
	if len(got) != 2 {
		t.Fatalf("anomalies %+v, want exactly the two m0007 findings", got)
	}
	for _, a := range got {
		if a.Machine != "m0007" || a.Template != "tpl" {
			t.Fatalf("flagged %+v, want m0007/tpl", a)
		}
		if a.Score <= 4 {
			t.Fatalf("anomaly %+v at or under threshold", a)
		}
	}
	if got[0].Metric != "energy_j_last" || got[1].Metric != "power_w_mean" {
		t.Fatalf("metrics %q,%q not sorted per machine", got[0].Metric, got[1].Metric)
	}
	if got[1].Value != 400 || got[1].Median >= 45 {
		t.Fatalf("power anomaly carries wrong stats: %+v", got[1])
	}

	// A population below MinMachines is never scored.
	if small := DetectAnomalies(store, f, AnomalyConfig{Threshold: 4, MinMachines: n + 1}); len(small) != 0 {
		t.Fatalf("undersized population still flagged %+v", small)
	}
	// Detector output is pure: rerunning gives the identical slice.
	again := DetectAnomalies(store, f, AnomalyConfig{Threshold: 4})
	if fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", got) {
		t.Fatal("detector not deterministic over the same store")
	}
}

// TestReportAttachAnomalies mirrors flagged machines into the incident
// ledger and the summary line.
func TestReportAttachAnomalies(t *testing.T) {
	rep := &Report{Machines: 2, Digest: strings.Repeat("ab", 32)}
	rep.attachAnomalies([]Anomaly{{
		Machine: "m0001", Template: "tpl", Metric: "power_w_mean",
		Value: 400, Median: 40, MAD: 0.3, Score: 809,
	}})
	if len(rep.Anomalies) != 1 {
		t.Fatalf("anomalies not attached: %+v", rep)
	}
	if len(rep.Incidents) != 1 || rep.Incidents[0].Kind != "anomaly" || rep.Incidents[0].Machine != "m0001" {
		t.Fatalf("incident mirror %+v", rep.Incidents)
	}
	if !strings.Contains(rep.Summary(), "anomalies=1") {
		t.Fatalf("summary %q missing anomaly count", rep.Summary())
	}
}
