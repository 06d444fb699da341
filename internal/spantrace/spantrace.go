// Package spantrace is a low-overhead, lock-minimal span/event recorder
// for the simulated heterogeneous stack. Every layer — scenario runs,
// core EventSet operations, perfevent syscalls, fault injections,
// degradation-ladder transitions, and the simulator's context switches
// and migrations — emits events onto named tracks (one per CPU, plus
// kernel/papi/scenario tracks) with sim-clock timestamps, tagged with an
// explicit trace-context ID that is begun at the scenario layer and
// propagated down the stack.
//
// Design constraints, in the spirit of Diamond et al.'s "What Is the
// Cost of Energy Monitoring?": the recorder must measure its own cost
// and a disabled recorder must cost a few nanoseconds per
// instrumentation site. Emission is gated twice: call sites check
// Enabled() (a nil check plus one atomic load) before building args, and
// the emit path re-checks. Storage is a fixed-capacity ring per track,
// each guarded by its own mutex so tracks never contend with each other;
// when a ring wraps, the oldest events are dropped and counted rather
// than blocking or growing.
//
// spantrace is a leaf package: it imports nothing from this module, so
// every layer (sim, perfevent, core, faults, scenario, telemetry) can
// depend on it without cycles.
package spantrace

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Phase distinguishes event shapes, mirroring the Chrome trace-event
// phases the exporter emits.
type Phase uint8

const (
	// PhaseSpan is a complete span with a start and a duration
	// (trace-event phase "X").
	PhaseSpan Phase = iota
	// PhaseInstant is a point event (trace-event phase "i").
	PhaseInstant
)

// String returns the trace-event phase letter.
func (p Phase) String() string {
	if p == PhaseSpan {
		return "X"
	}
	return "i"
}

// Arg is one key/value annotation on an event. A small struct slice is
// used instead of a map so that emitting an event with a handful of args
// costs one backing-array allocation, not a hash table.
type Arg struct {
	Key   string
	SVal  string
	FVal  float64
	IsNum bool
}

// Str builds a string-valued arg.
func Str(key, val string) Arg { return Arg{Key: key, SVal: val} }

// Num builds a float-valued arg.
func Num(key string, val float64) Arg { return Arg{Key: key, FVal: val, IsNum: true} }

// Int builds an integer-valued arg (stored as a float, exact to 2^53).
func Int(key string, val int) Arg { return Arg{Key: key, FVal: float64(val), IsNum: true} }

// Err builds the conventional "err" arg: "ok" for nil, the error text
// otherwise.
func Err(err error) Arg {
	if err == nil {
		return Arg{Key: "err", SVal: "ok"}
	}
	return Arg{Key: "err", SVal: err.Error()}
}

// Event is one recorded span or instant. Timestamps are simulated
// seconds (the machine clock), never wall clock; wall-clock measurements
// such as syscall service time travel as args so the trace itself stays
// deterministic for a fixed scenario seed.
type Event struct {
	ID       uint64  // unique, ascending in emission order
	Track    int     // index into the recorder's track table
	Phase    Phase   // span or instant
	Name     string  // e.g. "sys.open", "degrade.multiplex-fallback"
	Cat      string  // category, e.g. "syscall", "exec", "fault"
	Ctx      uint64  // trace-context ID current at emission (0 = none)
	StartSec float64 // sim-clock start (instants: the point in time)
	DurSec   float64 // span duration; 0 for instants
	Args     []Arg
}

// approxBytes estimates the retained footprint of the event for the
// self-overhead report: the fixed struct plus string payloads.
func (e *Event) approxBytes() int {
	n := 64 + len(e.Name) + len(e.Cat)
	for _, a := range e.Args {
		n += 32 + len(a.Key) + len(a.SVal)
	}
	return n
}

// track is one named ring buffer. Rings drop the oldest event on wrap:
// a long run keeps its most recent window, and the drop counter reports
// how much history was shed.
type track struct {
	name string

	mu      sync.Mutex
	buf     []Event
	start   int // index of oldest event
	n       int // live events
	dropped uint64
}

func (t *track) push(ev Event) (droppedOne bool) {
	t.mu.Lock()
	if t.n == len(t.buf) {
		t.buf[t.start] = ev
		t.start = (t.start + 1) % len(t.buf)
		t.dropped++
		droppedOne = true
	} else {
		t.buf[(t.start+t.n)%len(t.buf)] = ev
		t.n++
	}
	t.mu.Unlock()
	return droppedOne
}

// snapshot appends the track's live events, oldest first.
func (t *track) snapshot(dst []Event) ([]Event, uint64) {
	t.mu.Lock()
	for i := 0; i < t.n; i++ {
		dst = append(dst, t.buf[(t.start+i)%len(t.buf)])
	}
	d := t.dropped
	t.mu.Unlock()
	return dst, d
}

// Config sizes a Recorder.
type Config struct {
	// TrackCapacity is the fixed per-track ring capacity in events.
	// Defaults to 8192.
	TrackCapacity int
}

// DefaultTrackCapacity is used when Config.TrackCapacity is zero.
const DefaultTrackCapacity = 8192

// Recorder collects events onto named tracks. All methods are safe for
// concurrent use and safe on a nil receiver (a nil recorder is
// permanently disabled), so instrumentation sites never need a nil
// check beyond calling Enabled.
type Recorder struct {
	enabled atomic.Bool
	ctx     atomic.Uint64 // current trace-context ID
	nextID  atomic.Uint64
	emitted atomic.Uint64
	dropped atomic.Uint64

	mu       sync.Mutex // guards track registry and context names
	tracks   []*track
	byName   map[string]int
	ctxNames map[uint64]string
	nextCtx  uint64

	cap int
}

// New builds a recorder. It starts disabled; call Enable to record.
func New(cfg Config) *Recorder {
	c := cfg.TrackCapacity
	if c <= 0 {
		c = DefaultTrackCapacity
	}
	return &Recorder{
		byName:   map[string]int{},
		ctxNames: map[uint64]string{},
		cap:      c,
	}
}

// Enable turns recording on.
func (r *Recorder) Enable() {
	if r != nil {
		r.enabled.Store(true)
	}
}

// Disable turns recording off. Already-recorded events are kept.
func (r *Recorder) Disable() {
	if r != nil {
		r.enabled.Store(false)
	}
}

// Enabled reports whether emission is on. This is the per-site gate:
// on a nil or disabled recorder it costs a nil check plus at most one
// atomic load, so instrumentation can stay permanently compiled in.
func (r *Recorder) Enabled() bool {
	return r != nil && r.enabled.Load()
}

// Track returns the id for the named track, registering it on first
// use. Ids are stable for the life of the recorder. Returns -1 on a nil
// recorder.
func (r *Recorder) Track(name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byName[name]; ok {
		return id
	}
	id := len(r.tracks)
	r.tracks = append(r.tracks, &track{name: name, buf: make([]Event, r.cap)})
	r.byName[name] = id
	return id
}

// BeginContext allocates a fresh trace-context ID, names it, and makes
// it current. Every subsequently emitted event is tagged with it until
// the next BeginContext/SetContext. Returns 0 on a nil recorder.
func (r *Recorder) BeginContext(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.nextCtx++
	id := r.nextCtx
	r.ctxNames[id] = name
	r.mu.Unlock()
	r.ctx.Store(id)
	return id
}

// SetContext makes a previously begun context current (0 clears).
func (r *Recorder) SetContext(id uint64) {
	if r != nil {
		r.ctx.Store(id)
	}
}

// CurrentContext returns the context ID events are being tagged with.
func (r *Recorder) CurrentContext() uint64 {
	if r == nil {
		return 0
	}
	return r.ctx.Load()
}

// Span records a complete span on the track. Non-finite timestamps are
// rejected (counted as drops); negative or non-finite durations clamp
// to zero so the exported trace stays well-formed.
func (r *Recorder) Span(trk int, name, cat string, startSec, durSec float64, args ...Arg) {
	if !r.Enabled() {
		return
	}
	// Clamp anything whose microsecond form is not finite (NaN, Inf,
	// or finite-but-overflowing) so the exported trace stays valid JSON.
	if durSec < 0 || !finiteMicros(durSec) {
		durSec = 0
	}
	r.emit(trk, PhaseSpan, name, cat, startSec, durSec, args)
}

// Instant records a point event on the track.
func (r *Recorder) Instant(trk int, name, cat string, atSec float64, args ...Arg) {
	if !r.Enabled() {
		return
	}
	r.emit(trk, PhaseInstant, name, cat, atSec, 0, args)
}

// finiteMicros reports whether v survives the exporter's seconds-to-
// microseconds conversion as a finite number. NaN and Inf fail, and so
// do finite values large enough that v*1e6 overflows.
func finiteMicros(v float64) bool {
	us := v * 1e6
	return !math.IsNaN(us) && !math.IsInf(us, 0)
}

func (r *Recorder) emit(trk int, ph Phase, name, cat string, startSec, durSec float64, args []Arg) {
	if trk < 0 || !finiteMicros(startSec) {
		r.dropped.Add(1)
		return
	}
	r.mu.Lock()
	if trk >= len(r.tracks) {
		r.mu.Unlock()
		r.dropped.Add(1)
		return
	}
	t := r.tracks[trk]
	r.mu.Unlock()
	ev := Event{
		ID:       r.nextID.Add(1),
		Track:    trk,
		Phase:    ph,
		Name:     name,
		Cat:      cat,
		Ctx:      r.ctx.Load(),
		StartSec: startSec,
		DurSec:   durSec,
		Args:     args,
	}
	r.emitted.Add(1)
	if t.push(ev) {
		r.dropped.Add(1)
	}
}

// Stats is a point-in-time count of recorder activity.
type Stats struct {
	Enabled  bool
	Tracks   int
	Emitted  uint64 // events offered to rings (accepted emissions)
	Retained uint64 // events currently live across all rings
	Dropped  uint64 // oldest-evicted on wrap + rejected (bad track/timestamp)
	Bytes    uint64 // approximate retained footprint
}

// Stats returns current counters. Safe on a nil recorder.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	s := Stats{
		Enabled: r.enabled.Load(),
		Emitted: r.emitted.Load(),
		Dropped: r.dropped.Load(),
	}
	r.mu.Lock()
	tracks := append([]*track(nil), r.tracks...)
	r.mu.Unlock()
	s.Tracks = len(tracks)
	for _, t := range tracks {
		t.mu.Lock()
		s.Retained += uint64(t.n)
		for i := 0; i < t.n; i++ {
			s.Bytes += uint64(t.buf[(t.start+i)%len(t.buf)].approxBytes())
		}
		t.mu.Unlock()
	}
	return s
}

// OverheadReport is the recorder's self-measurement, in the same spirit
// as the telemetry collector's overhead gauges: what tracing emitted,
// what it holds, and what it costs per simulator tick.
type OverheadReport struct {
	SpansEmitted  uint64 `json:"spans_emitted"`
	SpansRetained uint64 `json:"spans_retained"`
	SpansDropped  uint64 `json:"spans_dropped"`
	BytesRetained uint64 `json:"bytes_retained"`
}

// Overhead assembles the self-overhead report.
func (r *Recorder) Overhead() OverheadReport {
	st := r.Stats()
	return OverheadReport{
		SpansEmitted:  st.Emitted,
		SpansRetained: st.Retained,
		SpansDropped:  st.Dropped,
		BytesRetained: st.Bytes,
	}
}

// Snapshot is a consistent copy-on-read view of the recorder for export
// and analysis: all live events globally sorted by time, the track name
// table, the context name table, and the overhead report.
type Snapshot struct {
	TrackNames []string
	Events     []Event
	Contexts   map[uint64]string
	Dropped    map[string]uint64 // per-track wrap drops
	Overhead   OverheadReport
}

// Snapshot copies out the recorder state. Each ring is locked briefly
// in turn; emission proceeds on other tracks meanwhile. Events are
// sorted by (StartSec, ID), which makes per-track timestamps monotonic
// in the export. Safe on a nil recorder (returns an empty snapshot).
func (r *Recorder) Snapshot() *Snapshot {
	snap := &Snapshot{Contexts: map[uint64]string{}, Dropped: map[string]uint64{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	tracks := append([]*track(nil), r.tracks...)
	snap.TrackNames = make([]string, len(tracks))
	for id, name := range r.ctxNames {
		snap.Contexts[id] = name
	}
	r.mu.Unlock()
	for i, t := range tracks {
		snap.TrackNames[i] = t.name
		var d uint64
		snap.Events, d = t.snapshot(snap.Events)
		if d > 0 {
			snap.Dropped[t.name] = d
		}
	}
	sort.Slice(snap.Events, func(i, j int) bool {
		a, b := &snap.Events[i], &snap.Events[j]
		if a.StartSec != b.StartSec {
			return a.StartSec < b.StartSec
		}
		return a.ID < b.ID
	})
	snap.Overhead = r.Overhead()
	return snap
}

// Reset drops all recorded events and contexts but keeps track
// registrations, counters for emitted/dropped, and the enabled state.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	tracks := append([]*track(nil), r.tracks...)
	r.ctxNames = map[uint64]string{}
	r.nextCtx = 0
	r.mu.Unlock()
	r.ctx.Store(0)
	for _, t := range tracks {
		t.mu.Lock()
		t.start, t.n = 0, 0
		t.mu.Unlock()
	}
}
