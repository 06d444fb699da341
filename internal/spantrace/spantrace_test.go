package spantrace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Enable()
	r.Disable()
	if got := r.Track("x"); got != -1 {
		t.Fatalf("nil Track = %d, want -1", got)
	}
	if got := r.BeginContext("run"); got != 0 {
		t.Fatalf("nil BeginContext = %d, want 0", got)
	}
	r.SetContext(7)
	if got := r.CurrentContext(); got != 0 {
		t.Fatalf("nil CurrentContext = %d, want 0", got)
	}
	r.Span(0, "s", "c", 0, 1)
	r.Instant(0, "i", "c", 0)
	r.Reset()
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v, want zero", st)
	}
	snap := r.Snapshot()
	if len(snap.Events) != 0 || len(snap.TrackNames) != 0 {
		t.Fatalf("nil Snapshot not empty: %+v", snap)
	}
}

func TestDisabledRecorderEmitsNothing(t *testing.T) {
	r := New(Config{})
	trk := r.Track("t")
	r.Span(trk, "s", "c", 0, 1)
	r.Instant(trk, "i", "c", 0)
	st := r.Stats()
	if st.Emitted != 0 || st.Retained != 0 {
		t.Fatalf("disabled recorder stored events: %+v", st)
	}
	r.Enable()
	r.Instant(trk, "i", "c", 0)
	if st := r.Stats(); st.Emitted != 1 || st.Retained != 1 {
		t.Fatalf("enabled recorder stats = %+v, want 1 emitted/retained", st)
	}
	r.Disable()
	r.Instant(trk, "i", "c", 1)
	if st := r.Stats(); st.Emitted != 1 {
		t.Fatalf("disable did not stop emission: %+v", st)
	}
	if st := r.Stats(); st.Retained != 1 {
		t.Fatalf("disable lost recorded events: %+v", st)
	}
}

func TestTrackRegistrationIdempotent(t *testing.T) {
	r := New(Config{})
	a := r.Track("cpu0")
	b := r.Track("cpu1")
	if a == b {
		t.Fatalf("distinct names share id %d", a)
	}
	if got := r.Track("cpu0"); got != a {
		t.Fatalf("re-registering cpu0: got %d, want %d", got, a)
	}
}

func TestRingWraparoundDropsOldest(t *testing.T) {
	r := New(Config{TrackCapacity: 4})
	r.Enable()
	trk := r.Track("t")
	for i := 0; i < 10; i++ {
		r.Instant(trk, fmt.Sprintf("ev%d", i), "c", float64(i))
	}
	st := r.Stats()
	if st.Emitted != 10 || st.Retained != 4 || st.Dropped != 6 {
		t.Fatalf("stats = %+v, want emitted 10, retained 4, dropped 6", st)
	}
	snap := r.Snapshot()
	if len(snap.Events) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(snap.Events))
	}
	for i, ev := range snap.Events {
		want := fmt.Sprintf("ev%d", i+6)
		if ev.Name != want {
			t.Errorf("event %d = %q, want %q (newest window)", i, ev.Name, want)
		}
	}
	if snap.Dropped["t"] != 6 {
		t.Errorf("per-track drops = %v, want t:6", snap.Dropped)
	}
}

func TestEmitRejectsBadInput(t *testing.T) {
	r := New(Config{})
	r.Enable()
	trk := r.Track("t")
	r.Instant(-1, "neg", "c", 0)
	r.Instant(99, "oob", "c", 0)
	r.Instant(trk, "nan", "c", math.NaN())
	r.Instant(trk, "inf", "c", math.Inf(1))
	r.Span(trk, "nan-dur", "c", 1, math.NaN())
	r.Span(trk, "neg-dur", "c", 1, -5)
	st := r.Stats()
	if st.Dropped != 4 {
		t.Fatalf("dropped = %d, want 4 (neg, oob, nan, inf)", st.Dropped)
	}
	if st.Retained != 2 {
		t.Fatalf("retained = %d, want 2 (clamped-duration spans)", st.Retained)
	}
	for _, ev := range r.Snapshot().Events {
		if ev.DurSec != 0 {
			t.Errorf("%s: duration %v, want clamped to 0", ev.Name, ev.DurSec)
		}
	}
}

func TestContextTagging(t *testing.T) {
	r := New(Config{})
	r.Enable()
	trk := r.Track("t")
	r.Instant(trk, "before", "c", 0)
	id1 := r.BeginContext("run-one")
	r.Instant(trk, "in1", "c", 1)
	id2 := r.BeginContext("run-two")
	r.Instant(trk, "in2", "c", 2)
	r.SetContext(id1)
	r.Instant(trk, "back", "c", 3)
	r.SetContext(0)
	r.Instant(trk, "after", "c", 4)

	if id1 == 0 || id2 == 0 || id1 == id2 {
		t.Fatalf("context ids %d, %d: want distinct nonzero", id1, id2)
	}
	want := map[string]uint64{"before": 0, "in1": id1, "in2": id2, "back": id1, "after": 0}
	snap := r.Snapshot()
	for _, ev := range snap.Events {
		if ev.Ctx != want[ev.Name] {
			t.Errorf("%s: ctx %d, want %d", ev.Name, ev.Ctx, want[ev.Name])
		}
	}
	if snap.Contexts[id1] != "run-one" || snap.Contexts[id2] != "run-two" {
		t.Errorf("context names = %v", snap.Contexts)
	}
}

func TestSnapshotSortedByTimeThenID(t *testing.T) {
	r := New(Config{})
	r.Enable()
	a, b := r.Track("a"), r.Track("b")
	r.Instant(a, "late", "c", 5)
	r.Instant(b, "early", "c", 1)
	r.Instant(a, "tie1", "c", 3)
	r.Instant(b, "tie2", "c", 3)
	snap := r.Snapshot()
	var names []string
	for _, ev := range snap.Events {
		names = append(names, ev.Name)
	}
	want := []string{"early", "tie1", "tie2", "late"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order %v, want %v", names, want)
		}
	}
}

func TestResetKeepsTracksAndCounters(t *testing.T) {
	r := New(Config{})
	r.Enable()
	trk := r.Track("t")
	r.BeginContext("run")
	r.Instant(trk, "x", "c", 0)
	r.Reset()
	st := r.Stats()
	if st.Retained != 0 {
		t.Fatalf("retained after reset = %d", st.Retained)
	}
	if st.Emitted != 1 {
		t.Fatalf("emitted counter lost by reset: %d", st.Emitted)
	}
	if !st.Enabled {
		t.Fatal("reset disabled the recorder")
	}
	if got := r.Track("t"); got != trk {
		t.Fatalf("track id changed across reset: %d -> %d", trk, got)
	}
	if r.CurrentContext() != 0 {
		t.Fatal("reset kept a current context")
	}
}

func TestOverheadReport(t *testing.T) {
	r := New(Config{})
	r.Enable()
	trk := r.Track("t")
	r.Instant(trk, "x", "c", 0, Str("k", "v"))
	rep := r.Overhead()
	if rep.SpansEmitted != 1 || rep.SpansRetained != 1 {
		t.Fatalf("overhead = %+v", rep)
	}
	if rep.BytesRetained == 0 {
		t.Fatal("bytes retained = 0, want > 0")
	}
}

func TestArgConstructors(t *testing.T) {
	if a := Str("k", "v"); a.Key != "k" || a.SVal != "v" || a.IsNum {
		t.Errorf("Str = %+v", a)
	}
	if a := Num("k", 1.5); a.FVal != 1.5 || !a.IsNum {
		t.Errorf("Num = %+v", a)
	}
	if a := Int("k", 7); a.FVal != 7 || !a.IsNum {
		t.Errorf("Int = %+v", a)
	}
	if a := Err(nil); a.Key != "err" || a.SVal != "ok" {
		t.Errorf("Err(nil) = %+v", a)
	}
	if a := Err(errors.New("EBUSY")); a.SVal != "EBUSY" {
		t.Errorf("Err = %+v", a)
	}
}

func TestConcurrentEmission(t *testing.T) {
	r := New(Config{TrackCapacity: 64})
	r.Enable()
	const workers, per = 8, 200
	tracks := make([]int, workers)
	for i := range tracks {
		tracks[i] = r.Track(fmt.Sprintf("w%d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Instant(tracks[w], "e", "c", float64(i))
			}
		}(w)
	}
	wg.Wait()
	st := r.Stats()
	if st.Emitted != workers*per {
		t.Fatalf("emitted = %d, want %d", st.Emitted, workers*per)
	}
	if st.Retained != workers*64 {
		t.Fatalf("retained = %d, want %d", st.Retained, workers*64)
	}
}

func TestExportJSONShape(t *testing.T) {
	r := New(Config{})
	r.Enable()
	cpu := r.Track("cpu0 P-core")
	kern := r.Track("kernel")
	ctx := r.BeginContext("run")
	r.Span(cpu, "hpl", "exec", 1.0, 0.5, Int("pid", 1000))
	r.Instant(kern, "sys.open", "syscall", 1.2, Err(nil), Num("wall_ns", 420))

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("export is not valid JSON")
	}
	var doc JSONTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 1 process_name + 2 thread_name + 2 data events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	meta := map[int]string{}
	var span, instant *JSONEvent
	for i := range doc.TraceEvents {
		ev := &doc.TraceEvents[i]
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			name, _ := ev.Args["name"].(string)
			meta[ev.TID] = name
		case ev.Ph == "X":
			span = ev
		case ev.Ph == "i":
			instant = ev
		}
	}
	if meta[cpu+1] != "cpu0 P-core" || meta[kern+1] != "kernel" {
		t.Errorf("thread names = %v", meta)
	}
	if span == nil || span.Ts != 1.0*1e6 || span.Dur != 0.5*1e6 {
		t.Fatalf("span = %+v", span)
	}
	if got, _ := span.Args["ctx"].(float64); uint64(got) != ctx {
		t.Errorf("span ctx arg = %v, want %d", span.Args["ctx"], ctx)
	}
	if span.Args["ctx_name"] != "run" {
		t.Errorf("span ctx_name = %v", span.Args["ctx_name"])
	}
	if instant == nil || instant.S != "t" || instant.Args["err"] != "ok" {
		t.Fatalf("instant = %+v", instant)
	}
	if doc.OtherData == nil || doc.OtherData.Tool != "hetpapitrace" {
		t.Fatalf("otherData = %+v", doc.OtherData)
	}
	if doc.OtherData.Overhead.SpansEmitted != 2 {
		t.Errorf("otherData overhead = %+v", doc.OtherData.Overhead)
	}
}

func TestExportPerTrackMonotonic(t *testing.T) {
	r := New(Config{TrackCapacity: 16})
	r.Enable()
	a, b := r.Track("a"), r.Track("b")
	// Interleave out-of-order emission across tracks; wrap track a.
	for i := 20; i > 0; i-- {
		r.Instant(a, "e", "c", float64(i%7))
		r.Instant(b, "e", "c", float64(i%5))
	}
	doc := ExportJSON(r.Snapshot())
	last := map[int]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Ts < last[ev.TID] {
			t.Fatalf("tid %d ts regressed: %v after %v", ev.TID, ev.Ts, last[ev.TID])
		}
		last[ev.TID] = ev.Ts
	}
}
