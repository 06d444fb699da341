package telemetry

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetpapi/internal/profile"
	"hetpapi/internal/spantrace"
	"hetpapi/internal/telemetry/httpobs"
	"hetpapi/internal/telemetry/promtext"
	"hetpapi/internal/validate"
)

// Server is the HTTP face of the store: the hetpapid daemon mounts its
// Handler, and tests drive it through httptest. Endpoints:
//
//	GET /health            liveness + store totals
//	GET /machines          machine registry with each sampler's ledger
//	GET /series?machine=M  series inventory of one machine
//	GET /query?machine=M&series=S[&from=F][&to=T][&agg=1][&rung=R]
//	GET /query?machine=M&kind=K&by=type
//	GET /fleet/query?rung=R[&from=F][&to=T][&type=T][&kind=K][&template=T][&timeline=1]
//	GET /fleet/ui          self-contained live fleet dashboard (HTML)
//	GET /degradations[?machine=M]  latest probe degradation tallies
//	GET /trace?machine=M   live span trace as Perfetto JSON
//	GET /profile?machine=M statistical profile as gzipped pprof proto
//	GET /validate          counter-accuracy scorecard (when published)
//	GET /metrics           Prometheus-style text exposition
//	GET /status            serving-path telemetry: per-endpoint latency,
//	                       errors, SLO attainment and the slow ring
//
// Every response body is JSON except /metrics and /fleet/ui. Errors —
// including 404s for unknown paths and 405s for non-GET methods —
// carry an APIError body ({"status":...,"error":...}). All handlers
// serve from copy-on-read store snapshots, so they never block
// ingestion beyond a shard's brief read lock; /series, /query and
// /fleet/query negotiate gzip via Accept-Encoding. Extra endpoints
// (the daemon's /fleet report) are attached with Mount before the
// first Handler call.
//
// Every request is accounted by an httpobs observer wrapping the whole
// chain (including the request-timeout layer, so timeout 503s count):
// /status serves its report, /metrics carries its hetpapid_http_*
// families, and AttachHTTPTracer lands one span per request in the
// same Perfetto export format as the simulator's traces.
type Server struct {
	store   *Store
	timeout time.Duration
	start   time.Time

	mu       sync.RWMutex
	machines map[string]*machineEntry

	// extra holds endpoints mounted by the embedding binary (the
	// hetpapid daemon mounts the fleet-report handler here), keeping
	// this package free of upward dependencies.
	extraMu sync.Mutex
	extra   map[string]http.Handler

	// scorecard is the counter-accuracy validation scorecard computed at
	// daemon startup (nil when validation is disabled); /validate serves
	// it as the deployment's measurement-trust attestation.
	scorecardMu sync.RWMutex
	scorecard   *validate.Scorecard

	// obs is the serving-path observer: every request through Handler is
	// accounted here, /status serves its report.
	obs *httpobs.Obs

	// httpTracer is the span recorder serving-path spans are emitted to
	// (nil when the daemon runs without tracing); /trace?machine=http
	// serves its buffer.
	httpTracerMu sync.Mutex
	httpTracer   *spantrace.Recorder
}

type machineEntry struct {
	scenarioName string
	model        string
	streamer     *Streamer
	running      atomic.Bool
	runs         atomic.Int64

	// tracer is the machine's span recorder (nil when the daemon runs
	// without tracing); /trace serves its live buffer.
	tracerMu sync.Mutex
	tracer   *spantrace.Recorder

	// prof is the machine's statistical profiler (nil when the daemon
	// runs without profiling); /profile serves its pprof export.
	profMu sync.Mutex
	prof   *profile.Collector
}

func (e *machineEntry) recorder() *spantrace.Recorder {
	e.tracerMu.Lock()
	defer e.tracerMu.Unlock()
	return e.tracer
}

func (e *machineEntry) profiler() *profile.Collector {
	e.profMu.Lock()
	defer e.profMu.Unlock()
	return e.prof
}

// builtinEndpoints are the server's own mux patterns, pre-registered
// with the request observer so each gets its own accounting bucket.
var builtinEndpoints = []string{
	"/health", "/validate", "/machines", "/series", "/query",
	"/fleet/query", "/fleet/ui", "/degradations", "/trace", "/profile",
	"/metrics", "/status",
}

// NewServer wraps a store. requestTimeout bounds each request's handler
// time (0 disables the limit).
func NewServer(store *Store, requestTimeout time.Duration) *Server {
	return &Server{
		store:    store,
		timeout:  requestTimeout,
		start:    time.Now(),
		machines: map[string]*machineEntry{},
		obs:      httpobs.New(httpobs.Config{Endpoints: builtinEndpoints}),
	}
}

// SetSLO updates the serving targets /status judges endpoints against.
func (s *Server) SetSLO(latencyMs, errorPct float64) { s.obs.SetSLO(latencyMs, errorPct) }

// AttachHTTPTracer hands the serving path a span recorder: every
// request emits one "http.<endpoint>" span, and /trace?machine=http
// serves the buffer. A nil recorder detaches.
func (s *Server) AttachHTTPTracer(rec *spantrace.Recorder) {
	s.httpTracerMu.Lock()
	s.httpTracer = rec
	s.httpTracerMu.Unlock()
	s.obs.AttachTracer(rec)
}

// Register announces a machine (one collection goroutine) to the API,
// with the streamer whose ledger /machines and /metrics report for it.
func (s *Server) Register(machine, scenarioName, model string, st *Streamer) {
	s.mu.Lock()
	s.machines[machine] = &machineEntry{scenarioName: scenarioName, model: model, streamer: st}
	s.mu.Unlock()
}

// AttachTracer hands a machine's span recorder to the API; /trace
// serves its buffer and /metrics exports its span counters. A nil
// recorder detaches.
func (s *Server) AttachTracer(machine string, rec *spantrace.Recorder) {
	s.mu.RLock()
	e := s.machines[machine]
	s.mu.RUnlock()
	if e != nil {
		e.tracerMu.Lock()
		e.tracer = rec
		e.tracerMu.Unlock()
	}
}

// AttachProfiler hands a machine's statistical profiler to the API;
// /profile serves its pprof export and /metrics exports its sample
// counters. A nil collector detaches.
func (s *Server) AttachProfiler(machine string, col *profile.Collector) {
	s.mu.RLock()
	e := s.machines[machine]
	s.mu.RUnlock()
	if e != nil {
		e.profMu.Lock()
		e.prof = col
		e.profMu.Unlock()
	}
}

// SetRunning flips a machine's in-flight flag; clearing it counts a
// finished run.
func (s *Server) SetRunning(machine string, running bool) {
	s.mu.RLock()
	e := s.machines[machine]
	s.mu.RUnlock()
	if e != nil {
		e.running.Store(running)
		if !running {
			e.runs.Add(1)
		}
	}
}

// Mount attaches an extra endpoint under the given mux pattern. Call
// before Handler; later Handler calls pick mounted handlers up. The
// fleet layer mounts its /fleet report endpoint here, so telemetry
// never needs to import it.
func (s *Server) Mount(pattern string, h http.Handler) {
	s.extraMu.Lock()
	if s.extra == nil {
		s.extra = map[string]http.Handler{}
	}
	s.extra[pattern] = h
	s.extraMu.Unlock()
	s.obs.Register(pattern)
}

// SetScorecard publishes the counter-accuracy scorecard for /validate to
// serve, replacing any previous one.
func (s *Server) SetScorecard(card *validate.Scorecard) {
	s.scorecardMu.Lock()
	s.scorecard = card
	s.scorecardMu.Unlock()
}

// Handler returns the fully composed HTTP handler: request observer
// around method guard around the (when configured) per-request timeout
// around the routing mux. The observer sits outermost so timeout 503s,
// 405s and unknown-path 404s all count into the serving metrics. The
// series-heavy endpoints (/series, /query, /fleet/query) negotiate
// gzip compression.
func (s *Server) Handler() http.Handler {
	return s.obs.Middleware(s.bareHandler())
}

// bareHandler is Handler without the request observer: the method
// guard, the timeout and the mux.
func (s *Server) bareHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", s.handleHealth)
	mux.HandleFunc("/validate", s.handleValidate)
	mux.HandleFunc("/machines", s.handleMachines)
	mux.Handle("/series", gzipHandler(http.HandlerFunc(s.handleSeries)))
	mux.Handle("/query", gzipHandler(http.HandlerFunc(s.handleQuery)))
	mux.Handle("/fleet/query", gzipHandler(http.HandlerFunc(s.handleFleetQuery)))
	mux.HandleFunc("/fleet/ui", s.handleFleetUI)
	mux.HandleFunc("/degradations", s.handleDegradations)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/", s.handleNotFound)
	s.extraMu.Lock()
	for pattern, h := range s.extra {
		mux.Handle(pattern, h)
	}
	s.extraMu.Unlock()
	var h http.Handler = mux
	if s.timeout > 0 {
		h = &deadlineHandler{handler: h, dt: s.timeout}
	}
	return methodGuard(h)
}

// methodGuard rejects non-read methods with a JSON 405: the whole API
// surface is read-only.
func methodGuard(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed (read-only API)", r.Method)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// handleNotFound is the mux fallback: unknown paths get the same JSON
// error shape as every other failure, and — because the observer wraps
// the whole chain — count into the error metrics under the "other"
// endpoint bucket.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "unknown path %q", r.URL.Path)
}

// handleStatus serves the serving path's own telemetry: per-endpoint
// request/error/latency accounting, SLO attainment with burn flags,
// and the slow-request ring.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.obs.Report())
}

// WriteJSON writes v as an indented JSON response with the given status
// code. Exported for handlers mounted onto the server from other
// packages (the fleet layer's /fleet endpoint).
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	e := jsonEncoders.Get().(*jsonEncoder)
	e.encode(w, v)
	if e.n <= maxPooledBody {
		jsonEncoders.Put(e)
	}
}

// jsonEncoder is a pooled indenting json.Encoder. An Encoder keeps the
// buffer it indents into across Encode calls, so a reused one does not
// grow a body-sized buffer for every response. The Encoder writes into
// the jsonEncoder, which passes each write on to the current response and
// reports it done: a json.Encoder keeps its first write error for good,
// and a pooled one outlives the connection that failed.
type jsonEncoder struct {
	enc *json.Encoder
	w   io.Writer // the response being written
	n   int       // bytes written to it
}

var jsonEncoders = sync.Pool{New: func() any {
	e := &jsonEncoder{}
	e.enc = json.NewEncoder(e)
	e.enc.SetIndent("", " ")
	return e
}}

// encode writes v, indented, to w.
func (e *jsonEncoder) encode(w io.Writer, v any) {
	e.w, e.n = w, 0
	e.enc.Encode(v)
	e.w = nil
}

func (e *jsonEncoder) Write(p []byte) (int, error) {
	e.w.Write(p)
	e.n += len(p)
	return len(p), nil
}

// WriteAPIError writes an APIError response, for mounted handlers.
func WriteAPIError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, APIError{Status: code, Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) { WriteJSON(w, code, v) }

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteAPIError(w, code, format, args...)
}

// gzipWriterPool recycles compressors across requests; one gzip.Writer
// holds sizable window buffers.
var gzipWriterPool = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// gzipResponseWriter funnels the handler's body through a gzip stream
// while leaving headers and status codes alone.
type gzipResponseWriter struct {
	http.ResponseWriter
	zw *gzip.Writer
}

func (g *gzipResponseWriter) Write(b []byte) (int, error) { return g.zw.Write(b) }

// gzipHandler negotiates gzip content encoding: when the client's
// Accept-Encoding lists gzip, the wrapped handler's response body is
// compressed and tagged Content-Encoding: gzip. Series payloads are
// floating-point JSON that compresses 5-10×, which matters once
// /fleet/query aggregates thousands of machines.
func gzipHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Add("Vary", "Accept-Encoding")
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			h.ServeHTTP(w, r)
			return
		}
		zw := gzipWriterPool.Get().(*gzip.Writer)
		zw.Reset(w)
		w.Header().Set("Content-Encoding", "gzip")
		h.ServeHTTP(&gzipResponseWriter{ResponseWriter: w, zw: zw}, r)
		zw.Close()
		gzipWriterPool.Put(zw)
	})
}

// knownMachine reports whether a machine id is registered or present in
// the store (stores fed outside a daemon have no registry entries).
func (s *Server) knownMachine(name string) bool {
	s.mu.RLock()
	_, ok := s.machines[name]
	s.mu.RUnlock()
	return ok || s.store.row(name) != nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	nm := len(s.machines)
	s.mu.RUnlock()
	if n := len(s.store.machineRows()); n > nm {
		nm = n
	}
	writeJSON(w, http.StatusOK, HealthInfo{
		Status:    "ok",
		UptimeSec: time.Since(s.start).Seconds(),
		Machines:  nm,
		Series:    s.store.NumSeries(),
	})
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.machines))
	for name := range s.machines {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]MachineInfo, 0, len(names))
	for _, name := range names {
		e := s.machines[name]
		o := e.streamer.SelfOverhead()
		out = append(out, MachineInfo{
			Name:       name,
			Scenario:   e.scenarioName,
			Model:      e.model,
			Running:    e.running.Load(),
			Runs:       e.runs.Load(),
			Samples:    o.Samples,
			Points:     o.Points,
			IngestSec:  o.IngestSec,
			NsPerPoint: o.NsPerPoint,
		})
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	machine := r.URL.Query().Get("machine")
	if machine == "" {
		writeError(w, http.StatusBadRequest, "missing machine parameter")
		return
	}
	if !s.knownMachine(machine) {
		writeError(w, http.StatusNotFound, "unknown machine %q", machine)
		return
	}
	var list []seriesRef
	if row := s.store.row(machine); row != nil {
		list = row.list()
	}
	out := make([]SeriesInfo, 0, len(list))
	for _, e := range list {
		agg, points := e.summary()
		out = append(out, SeriesInfo{Name: e.name, Points: points, Agg: agg})
	}
	writeJSON(w, http.StatusOK, out)
}

// parseBound parses an optional float query parameter, defaulting to -1
// (open bound).
func parseBound(q string) (float64, error) {
	if q == "" {
		return -1, nil
	}
	return strconv.ParseFloat(q, 64)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	machine := q.Get("machine")
	if machine == "" {
		writeError(w, http.StatusBadRequest, "missing machine parameter")
		return
	}
	if !s.knownMachine(machine) {
		writeError(w, http.StatusNotFound, "unknown machine %q", machine)
		return
	}
	series, kind := q.Get("series"), q.Get("kind")
	switch {
	case series == "" && kind == "":
		writeError(w, http.StatusBadRequest, "need series= or kind= parameter")
		return
	case series != "" && kind != "":
		writeError(w, http.StatusBadRequest, "series= and kind= are mutually exclusive")
		return
	}
	if kind != "" {
		if by := q.Get("by"); by != "" && by != "type" {
			writeError(w, http.StatusBadRequest, "unsupported by=%q (only by=type)", by)
			return
		}
		writeJSON(w, http.StatusOK, QueryResponse{
			Machine: machine,
			Groups:  s.store.TypeAggregates(machine, kind),
		})
		return
	}
	from, err := parseBound(q.Get("from"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad from parameter: %v", err)
		return
	}
	to, err := parseBound(q.Get("to"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad to parameter: %v", err)
		return
	}
	key := Key{machine, series}
	if rungName := q.Get("rung"); rungName != "" && rungName != "raw" {
		rung, err := ParseRung(rungName)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad rung parameter: %v", err)
			return
		}
		buckets, ok := s.store.RungRange(key, rung, from, to)
		if !ok {
			writeError(w, http.StatusNotFound, "machine %q has no series %q", machine, series)
			return
		}
		resp := QueryResponse{Machine: machine, Series: series, Rung: rung.String(), Buckets: buckets}
		if v := q.Get("agg"); v == "1" || v == "true" {
			agg, _ := s.store.Aggregate(key)
			resp.Aggregate = &agg
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// Copy-on-read through a pooled buffer: the hot polling path (live
	// dashboards re-fetch every second) reuses one point slice per
	// request instead of allocating a fresh snapshot each time. The
	// buffer is returned to the pool only after writeJSON has fully
	// marshalled the response.
	bufp := pointBufPool.Get().(*[]Point)
	pts, ok := s.store.RangeInto(key, from, to, (*bufp)[:0])
	if !ok {
		pointBufPool.Put(bufp)
		writeError(w, http.StatusNotFound, "machine %q has no series %q", machine, series)
		return
	}
	resp := QueryResponse{Machine: machine, Series: series, Points: pts}
	if v := q.Get("agg"); v == "1" || v == "true" {
		agg, _ := s.store.Aggregate(key)
		resp.Aggregate = &agg
	}
	writeJSON(w, http.StatusOK, resp)
	*bufp = pts[:0]
	pointBufPool.Put(bufp)
}

// pointBufPool recycles /query's copy-on-read point buffers across
// requests.
var pointBufPool = sync.Pool{New: func() any {
	buf := make([]Point, 0, 4096)
	return &buf
}}

// handleDegradations reports, per machine carrying a measurement probe,
// the latest graceful-degradation tallies and probe readings — the
// operational view of how hard the perf substrate is pushing back. An
// optional machine= parameter restricts the listing.
func (s *Server) handleDegradations(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("machine")
	if filter != "" && !s.knownMachine(filter) {
		writeError(w, http.StatusNotFound, "unknown machine %q", filter)
		return
	}
	out := []DegradationInfo{}
	for _, row := range s.store.machineRows() {
		machine := row.id
		if filter != "" && machine != filter {
			continue
		}
		info := DegradationInfo{Machine: machine, Counters: map[string]float64{}}
		finals := map[string]float64{}
		bounds := map[string]float64{}
		var events []string
		for _, e := range row.list() {
			name := e.name
			switch {
			case strings.HasPrefix(name, "degradation/"):
				info.Counters[strings.TrimPrefix(name, "degradation/")] = e.last()
			case strings.HasPrefix(name, "measure/"):
				parts := strings.Split(name, "/")
				if len(parts) != 3 {
					continue
				}
				switch parts[2] {
				case "final":
					finals[parts[1]] = e.last()
					events = append(events, parts[1])
				case "error_bound":
					bounds[parts[1]] = e.last()
				}
			}
		}
		if len(info.Counters) == 0 && len(events) == 0 {
			continue // no probe on this machine
		}
		sort.Strings(events)
		for _, ev := range events {
			info.Events = append(info.Events, MeasureValueInfo{
				Event: ev, Final: finals[ev], ErrorBound: bounds[ev],
			})
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleFleetQuery serves the population-wide streaming aggregation
// view: per-(core type, event kind) aggregates over one downsampled
// rung and time window, merged across every machine in the store. The
// merge reads only pre-computed rung buckets, so cost is bounded by
// series × RungCapacity regardless of how much raw data the fleet
// streamed.
func (s *Server) handleFleetQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	rungName := q.Get("rung")
	if rungName == "" {
		rungName = "10s"
	}
	rung, err := ParseRung(rungName)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad rung parameter: %v", err)
		return
	}
	from, err := parseBound(q.Get("from"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad from parameter: %v", err)
		return
	}
	to, err := parseBound(q.Get("to"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad to parameter: %v", err)
		return
	}
	tl := q.Get("timeline")
	resp, err := s.store.FleetQuery(FleetQueryRequest{
		Rung:     rung,
		FromSec:  from,
		ToSec:    to,
		Type:     q.Get("type"),
		Kind:     q.Get("kind"),
		Template: q.Get("template"),
		Machine:  q.Get("machine"),
		Timeline: tl == "1" || tl == "true",
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleValidate serves the startup counter-accuracy scorecard: every
// oracle row, the overhead and sampling ledgers, the summary and the
// reproducibility digest. 404 until the daemon has published one.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	s.scorecardMu.RLock()
	card := s.scorecard
	s.scorecardMu.RUnlock()
	if card == nil {
		writeError(w, http.StatusNotFound, "no validation scorecard (daemon running with -validate=false, or startup validation still pending)")
		return
	}
	writeJSON(w, http.StatusOK, card)
}

// handleTrace serves a machine's live span-trace buffer as Chrome
// trace-event / Perfetto JSON — download and open in ui.perfetto.dev.
// The snapshot is copy-on-read; recording continues while it streams.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	machine := r.URL.Query().Get("machine")
	if machine == "" {
		writeError(w, http.StatusBadRequest, "missing machine parameter")
		return
	}
	var rec *spantrace.Recorder
	if machine == "http" {
		// The serving path's own spans, recorded via AttachHTTPTracer.
		s.httpTracerMu.Lock()
		rec = s.httpTracer
		s.httpTracerMu.Unlock()
		if rec == nil {
			writeError(w, http.StatusNotFound, "no serving-path span recorder (tracing disabled)")
			return
		}
	} else {
		s.mu.RLock()
		e := s.machines[machine]
		s.mu.RUnlock()
		if e == nil {
			writeError(w, http.StatusNotFound, "unknown machine %q", machine)
			return
		}
		rec = e.recorder()
	}
	if rec == nil {
		writeError(w, http.StatusNotFound, "machine %q has no span recorder (tracing disabled)", machine)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("inline; filename=%q", machine+"-trace.json"))
	if err := spantrace.WriteJSON(w, rec.Snapshot()); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

// handleProfile serves a machine's statistical profile as a gzipped
// pprof profile.proto — fetch and open with `go tool pprof`. The last
// completed run's profile is preferred; before the first run finishes,
// the live in-progress snapshot is served instead.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	machine := r.URL.Query().Get("machine")
	if machine == "" {
		writeError(w, http.StatusBadRequest, "missing machine parameter")
		return
	}
	s.mu.RLock()
	e := s.machines[machine]
	s.mu.RUnlock()
	if e == nil {
		writeError(w, http.StatusNotFound, "unknown machine %q", machine)
		return
	}
	col := e.profiler()
	if col == nil {
		writeError(w, http.StatusNotFound, "machine %q has no profiler (profiling disabled)", machine)
		return
	}
	prof := col.LastRun()
	if prof == nil {
		prof = col.Snapshot()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", machine+"-profile.pb.gz"))
	if err := profile.WritePprof(w, prof); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	freq := promtext.Family{Name: "hetpapi_cpu_frequency_mhz", Help: "Per-CPU frequency during the last tick.", Type: "gauge"}
	temp := promtext.Family{Name: "hetpapi_pkg_temperature_celsius", Help: "Package thermal zone temperature.", Type: "gauge"}
	pwr := promtext.Family{Name: "hetpapi_pkg_power_watts", Help: "Package power over the last tick.", Type: "gauge"}
	wall := promtext.Family{Name: "hetpapi_wall_power_watts", Help: "AC-side wall meter power.", Type: "gauge"}
	energy := promtext.Family{Name: "hetpapi_pkg_energy_joules_total", Help: "Cumulative RAPL package energy.", Type: "counter"}
	ctr := promtext.Family{Name: "hetpapi_counter_total", Help: "System-wide perf counter value per CPU, core type and event kind.", Type: "counter"}
	degr := promtext.Family{Name: "hetpapi_degradation_total", Help: "Graceful-degradation actions performed by the measurement probe, by action.", Type: "counter"}
	runs := promtext.Family{Name: "hetpapid_runs_total", Help: "Finished scenario runs.", Type: "counter"}
	samples := promtext.Family{Name: "hetpapid_samples_total", Help: "Sampling passes of the machine's streamer.", Type: "counter"}
	points := promtext.Family{Name: "hetpapid_points_total", Help: "Series points the machine's streamer appended.", Type: "counter"}
	ingest := promtext.Family{Name: "hetpapid_ingest_seconds_total", Help: "Wall-clock seconds spent in telemetry ingestion.", Type: "counter"}
	nsPoint := promtext.Family{Name: "hetpapid_ingest_ns_per_point", Help: "Mean ingestion wall time per appended point.", Type: "gauge"}
	spEmit := promtext.Family{Name: "hetpapid_spans_emitted_total", Help: "Span-trace events accepted by the machine's recorder.", Type: "counter"}
	spKeep := promtext.Family{Name: "hetpapid_spans_retained", Help: "Span-trace events currently held in the recorder's rings.", Type: "gauge"}
	spDrop := promtext.Family{Name: "hetpapid_spans_dropped_total", Help: "Span-trace events dropped by ring wraparound or rejected as malformed.", Type: "counter"}
	pfEmit := promtext.Family{Name: "hetpapiprof_samples_emitted_total", Help: "Overflow sample records retained by the machine's statistical profiler.", Type: "counter"}
	pfLost := promtext.Family{Name: "hetpapiprof_samples_lost_total", Help: "Overflow sample records dropped by ring pressure before a drain.", Type: "counter"}

	for _, row := range s.store.machineRows() {
		m := row.id
		for _, e := range row.list() {
			name := e.name
			switch {
			case strings.HasPrefix(name, "cpu") && strings.HasSuffix(name, "_mhz"):
				freq.Sample(e.last(), "machine", m, "cpu", strings.TrimSuffix(strings.TrimPrefix(name, "cpu"), "_mhz"))
			case name == "temp_c":
				temp.Sample(e.last(), "machine", m)
			case name == "power_w":
				pwr.Sample(e.last(), "machine", m)
			case name == "wall_w":
				wall.Sample(e.last(), "machine", m)
			case name == "energy_j":
				energy.Sample(e.last(), "machine", m)
			case strings.HasPrefix(name, "degradation/"):
				degr.Sample(e.last(), "machine", m, "action", strings.TrimPrefix(name, "degradation/"))
			case e.counter:
				cpu, typeName, kind, _ := parseCounterSeries(name)
				ctr.Sample(e.last(), "machine", m, "cpu", cpu, "type", typeName, "kind", kind)
			}
		}
	}

	s.mu.RLock()
	names := make([]string, 0, len(s.machines))
	for name := range s.machines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := s.machines[name]
		o := e.streamer.SelfOverhead()
		runs.Sample(float64(e.runs.Load()), "machine", name)
		samples.Sample(float64(o.Samples), "machine", name)
		points.Sample(float64(o.Points), "machine", name)
		ingest.Sample(o.IngestSec, "machine", name)
		nsPoint.Sample(o.NsPerPoint, "machine", name)
		if rec := e.recorder(); rec != nil {
			st := rec.Stats()
			spEmit.Sample(float64(st.Emitted), "machine", name)
			spKeep.Sample(float64(st.Retained), "machine", name)
			spDrop.Sample(float64(st.Dropped), "machine", name)
		}
		if col := e.profiler(); col != nil {
			pfEmit.Sample(float64(col.EmittedTotal()), "machine", name)
			pfLost.Sample(float64(col.LostTotal()), "machine", name)
		}
	}
	s.mu.RUnlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A failed write means the client is gone; there is no one to tell.
	_ = promtext.Write(w, &freq, &temp, &pwr, &wall, &energy, &ctr, &degr, &runs, &samples, &points, &ingest, &nsPoint, &spEmit, &spKeep, &spDrop, &pfEmit, &pfLost)
	// The serving path's own families (hetpapid_http_*).
	s.obs.WritePrometheus(w)
}
