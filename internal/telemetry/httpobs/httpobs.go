// Package httpobs is the request-level observability layer of the
// hetpapid serving path: an http.Handler middleware that wraps every
// mounted endpoint with per-endpoint latency histograms, status-class
// and error counters, in-flight and bytes-in/out gauges, a gzip-hit
// ratio, and a bounded slow-request ring — plus per-endpoint SLO
// attainment against configurable latency and error-rate targets.
//
// Design constraints follow the repo's monitoring discipline (the RAPL
// overhead study: a monitor's own cost must be measured, not assumed;
// LIKWID: instrumentation must be cheap enough to leave on). The
// steady-state request cost is a read-locked map lookup, a dozen atomic
// adds, and one short per-endpoint critical section for the streaming
// quantile window — endpoints never contend with each other (the locks
// are striped per endpoint), and the response-writer wrapper is pooled
// so the middleware allocates nothing per request in steady state.
// internal/telemetry's TestObserverAllocations holds that: the composed
// handler may allocate at most 0.5 times per request more than the bare
// one.
//
// When a spantrace.Recorder is attached, every request additionally
// emits one "http.<endpoint>" span (category "http") with method,
// status and byte-count args onto the recorder's "http" track, so
// serving-path spans land in the same Perfetto export format as the
// simulator's spans. Timestamps are wall-clock seconds since the
// observer started.
//
// httpobs imports only internal/stats, internal/spantrace and the
// exposition writer internal/telemetry/promtext, so the telemetry server
// (and any other HTTP surface) can embed it without cycles.
package httpobs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetpapi/internal/spantrace"
	"hetpapi/internal/stats"
)

// Defaults.
const (
	// DefaultSlowRingCapacity bounds the slow-request ring.
	DefaultSlowRingCapacity = 64
	// DefaultSlowThreshold is the latency above which a request enters
	// the slow ring.
	DefaultSlowThreshold = 100 * time.Millisecond
	// DefaultQuantileWindow sizes the per-endpoint RingQuantile window
	// backing p50/p95/p99. Inserts are O(window) memmoves, so the window
	// trades percentile fidelity against the per-request budget.
	DefaultQuantileWindow = 256
	// DefaultSLOLatencyMs / DefaultSLOErrorPct are the serving targets
	// used when the daemon passes none.
	DefaultSLOLatencyMs = 250.0
	DefaultSLOErrorPct  = 1.0
	// MinSLORequests is the sample floor below which burn flags never
	// raise — a single slow request out of three is noise, not a burn.
	MinSLORequests = 10
	// OtherEndpoint is the bucket unmatched request paths fall into, so
	// 404 traffic is counted without letting attackers mint unbounded
	// label cardinality.
	OtherEndpoint = "other"
)

// numBuckets covers log2 latency buckets up to 2^39 ns (~9 minutes);
// slower requests clamp into the last bucket.
const numBuckets = 40

// Config sizes an Obs.
type Config struct {
	// Endpoints lists the known endpoint patterns (exact-match request
	// paths). Requests to any other path are accounted under
	// OtherEndpoint. More patterns can be added later with Register.
	Endpoints []string
	// SlowRingCapacity bounds the slow-request ring (0 = default).
	SlowRingCapacity int
	// SlowThreshold is the latency above which a request is recorded in
	// the slow ring. 0 = default; negative disables the ring.
	SlowThreshold time.Duration
	// QuantileWindow sizes the per-endpoint percentile window (0 =
	// default).
	QuantileWindow int
	// SLOLatencyMs / SLOErrorPct are the initial per-endpoint targets
	// (0 = default). Adjustable at runtime with SetSLO.
	SLOLatencyMs float64
	SLOErrorPct  float64
	// Now overrides the clock (tests inject deterministic time). nil =
	// time.Now.
	Now func() time.Time
}

// Obs is the request observer. All methods are safe for concurrent use.
type Obs struct {
	now   func() time.Time
	start time.Time

	quantileWindow  int
	slowThresholdNs int64 // <0: ring disabled

	sloLatencyMs atomic.Uint64 // float64 bits
	sloErrorPct  atomic.Uint64 // float64 bits

	mu        sync.RWMutex // guards the endpoint registry (read-mostly)
	endpoints map[string]*endpointStats

	requests atomic.Uint64
	inflight atomic.Int64

	tracer atomic.Pointer[spantrace.Recorder]

	slowMu      sync.Mutex
	slow        []SlowRequest
	slowStart   int
	slowN       int
	slowDropped uint64

	wrapPool sync.Pool // *respWriter
}

// endpointStats is one endpoint's accounting. Counters are atomic; the
// streaming mean/percentile accumulators sit behind the endpoint's own
// mutex (the lock stripe), so endpoints never contend with each other.
type endpointStats struct {
	name string

	requests atomic.Uint64
	class    [6]atomic.Uint64 // index status/100 (1xx..5xx; 0 = malformed)
	errors   atomic.Uint64    // status >= 400
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
	gzipHits atomic.Uint64
	inflight atomic.Int64
	totalNs  atomic.Uint64
	maxNs    atomic.Uint64
	buckets  [numBuckets]atomic.Uint64
	inSLO    atomic.Uint64 // completed within the latency target of the time

	mu sync.Mutex
	wf stats.Welford       // latency ms, lifetime
	rq *stats.RingQuantile // latency ms, recent window
}

// New builds an observer.
func New(cfg Config) *Obs {
	o := &Obs{
		now:            cfg.Now,
		quantileWindow: cfg.QuantileWindow,
		endpoints:      map[string]*endpointStats{},
	}
	if o.now == nil {
		o.now = time.Now
	}
	o.start = o.now()
	if o.quantileWindow <= 0 {
		o.quantileWindow = DefaultQuantileWindow
	}
	switch {
	case cfg.SlowThreshold < 0:
		o.slowThresholdNs = -1
	case cfg.SlowThreshold == 0:
		o.slowThresholdNs = DefaultSlowThreshold.Nanoseconds()
	default:
		o.slowThresholdNs = cfg.SlowThreshold.Nanoseconds()
	}
	capSlow := cfg.SlowRingCapacity
	if capSlow <= 0 {
		capSlow = DefaultSlowRingCapacity
	}
	o.slow = make([]SlowRequest, capSlow)
	lat, errPct := cfg.SLOLatencyMs, cfg.SLOErrorPct
	if lat <= 0 {
		lat = DefaultSLOLatencyMs
	}
	if errPct <= 0 {
		errPct = DefaultSLOErrorPct
	}
	o.SetSLO(lat, errPct)
	for _, ep := range cfg.Endpoints {
		o.Register(ep)
	}
	o.Register(OtherEndpoint)
	o.wrapPool.New = func() any { return &respWriter{} }
	return o
}

// Register adds an endpoint pattern to the registry (idempotent), so
// later traffic to it is accounted under its own name rather than
// OtherEndpoint. The server calls this for handlers mounted after
// construction.
func (o *Obs) Register(pattern string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.endpoints[pattern]; ok {
		return
	}
	o.endpoints[pattern] = &endpointStats{
		name: pattern,
		rq:   stats.NewRingQuantile(o.quantileWindow),
	}
}

// SetSLO updates the per-endpoint targets: latencyMs is the per-request
// latency target (attainment is the fraction of requests completing
// under it), errorPct the tolerated error rate in percent. Attainment
// is judged against the target in force when each request completes.
func (o *Obs) SetSLO(latencyMs, errorPct float64) {
	o.sloLatencyMs.Store(math.Float64bits(latencyMs))
	o.sloErrorPct.Store(math.Float64bits(errorPct))
}

// SLO returns the current targets.
func (o *Obs) SLO() (latencyMs, errorPct float64) {
	return math.Float64frombits(o.sloLatencyMs.Load()),
		math.Float64frombits(o.sloErrorPct.Load())
}

// AttachTracer hands the observer a span recorder: every subsequent
// request emits one "http.<endpoint>" span onto its "http" track. A
// fresh trace context is begun so serving spans are distinguishable
// from any simulator contexts sharing the recorder. nil detaches.
func (o *Obs) AttachTracer(rec *spantrace.Recorder) {
	if rec != nil {
		rec.BeginContext("http.serve")
	}
	o.tracer.Store(rec)
}

// resolve maps a request path to its endpoint stats.
func (o *Obs) resolve(path string) *endpointStats {
	o.mu.RLock()
	ep := o.endpoints[path]
	if ep == nil {
		ep = o.endpoints[OtherEndpoint]
	}
	o.mu.RUnlock()
	return ep
}

// respWriter captures status, bytes and the gzip content-encoding of
// one response. Pooled: the middleware resets it per request.
type respWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	gzip   bool
	wrote  bool
}

func (rw *respWriter) reset(w http.ResponseWriter) {
	rw.ResponseWriter = w
	rw.status = 0
	rw.bytes = 0
	rw.gzip = false
	rw.wrote = false
}

func (rw *respWriter) WriteHeader(code int) {
	if !rw.wrote {
		rw.wrote = true
		rw.status = code
		rw.gzip = rw.Header().Get("Content-Encoding") == "gzip"
	}
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *respWriter) Write(b []byte) (int, error) {
	if !rw.wrote {
		rw.wrote = true
		rw.status = http.StatusOK
		rw.gzip = rw.Header().Get("Content-Encoding") == "gzip"
	}
	n, err := rw.ResponseWriter.Write(b)
	rw.bytes += int64(n)
	return n, err
}

// Middleware wraps next with request accounting. The wrapper measures
// wall time around the whole downstream chain, so composing it outside
// the request-deadline handler makes timeout 503s count like any other
// response.
func (o *Obs) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := o.resolve(r.URL.Path)
		o.inflight.Add(1)
		ep.inflight.Add(1)
		rw := o.wrapPool.Get().(*respWriter)
		rw.reset(w)
		t0 := o.now()
		next.ServeHTTP(rw, r)
		durNs := o.now().Sub(t0).Nanoseconds()
		status, bytesOut, gz := rw.status, rw.bytes, rw.gzip
		if status == 0 {
			status = http.StatusOK // handler never wrote; net/http sends 200
		}
		rw.reset(nil)
		o.wrapPool.Put(rw)
		ep.inflight.Add(-1)
		o.inflight.Add(-1)
		o.record(ep, r, status, bytesOut, gz, durNs, t0)
	})
}

func (o *Obs) record(ep *endpointStats, r *http.Request, status int, bytesOut int64, gz bool, durNs int64, t0 time.Time) {
	if durNs < 0 {
		durNs = 0
	}
	o.requests.Add(1)
	ep.requests.Add(1)
	ci := status / 100
	if ci < 0 || ci > 5 {
		ci = 0
	}
	ep.class[ci].Add(1)
	if status >= 400 {
		ep.errors.Add(1)
	}
	if r.ContentLength > 0 {
		ep.bytesIn.Add(uint64(r.ContentLength))
	}
	if bytesOut > 0 {
		ep.bytesOut.Add(uint64(bytesOut))
	}
	if gz {
		ep.gzipHits.Add(1)
	}
	ep.totalNs.Add(uint64(durNs))
	for {
		cur := ep.maxNs.Load()
		if uint64(durNs) <= cur || ep.maxNs.CompareAndSwap(cur, uint64(durNs)) {
			break
		}
	}
	ep.buckets[stats.Log2Bucket(uint64(durNs), numBuckets)].Add(1)
	ms := float64(durNs) / 1e6
	lat, _ := o.SLO()
	if ms <= lat {
		ep.inSLO.Add(1)
	}
	ep.mu.Lock()
	ep.wf.Add(ms)
	ep.rq.Add(ms)
	ep.mu.Unlock()

	if o.slowThresholdNs >= 0 && durNs >= o.slowThresholdNs {
		o.pushSlow(SlowRequest{
			Method:   r.Method,
			Path:     r.URL.Path,
			Endpoint: ep.name,
			Status:   status,
			DurMs:    ms,
			AtSec:    t0.Sub(o.start).Seconds(),
		})
	}

	if rec := o.tracer.Load(); rec.Enabled() {
		rec.Span(rec.Track("http"), "http."+ep.name, "http",
			t0.Sub(o.start).Seconds(), float64(durNs)/1e9,
			spantrace.Str("method", r.Method),
			spantrace.Int("status", status),
			spantrace.Int("bytes_out", int(bytesOut)))
	}
}

// pushSlow appends to the bounded slow ring, dropping the oldest entry
// (and counting the drop) on wrap.
func (o *Obs) pushSlow(s SlowRequest) {
	o.slowMu.Lock()
	if o.slowN == len(o.slow) {
		o.slow[o.slowStart] = s
		o.slowStart = (o.slowStart + 1) % len(o.slow)
		o.slowDropped++
	} else {
		o.slow[(o.slowStart+o.slowN)%len(o.slow)] = s
		o.slowN++
	}
	o.slowMu.Unlock()
}

// SlowRequest is one slow-ring entry.
type SlowRequest struct {
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Endpoint string  `json:"endpoint"`
	Status   int     `json:"status"`
	DurMs    float64 `json:"dur_ms"`
	// AtSec is the request's arrival time in seconds since the observer
	// started.
	AtSec float64 `json:"at_sec"`
}

// SLOStatus is one endpoint's attainment against the serving targets.
type SLOStatus struct {
	LatencyTargetMs float64 `json:"latency_target_ms"`
	// LatencyAttainPct is the percentage of requests that completed
	// within the latency target (judged at completion time).
	LatencyAttainPct float64 `json:"latency_attain_pct"`
	ErrorTargetPct   float64 `json:"error_target_pct"`
	ErrorPct         float64 `json:"error_pct"`
	// LatencyBurn raises when attainment drops below 99% — i.e. more
	// than 1% of requests exceeded the latency target — with at least
	// MinSLORequests samples. ErrorBurn raises when the error rate
	// exceeds its target under the same sample floor.
	LatencyBurn bool `json:"latency_burn"`
	ErrorBurn   bool `json:"error_burn"`
	OK          bool `json:"ok"`
}

// Burn is one incident-ledger entry: an endpoint currently violating a
// serving objective, in the style of internal/fleet's Incident rows.
type Burn struct {
	Endpoint string `json:"endpoint"`
	Kind     string `json:"kind"` // "latency" or "error"
	Detail   string `json:"detail"`
}

// EndpointStatus is one endpoint's /status entry.
type EndpointStatus struct {
	Endpoint    string            `json:"endpoint"`
	Requests    uint64            `json:"requests"`
	InFlight    int64             `json:"in_flight"`
	StatusClass map[string]uint64 `json:"status_class,omitempty"`
	Errors      uint64            `json:"errors"`
	ErrorPct    float64           `json:"error_pct"`
	BytesIn     uint64            `json:"bytes_in"`
	BytesOut    uint64            `json:"bytes_out"`
	GzipHits    uint64            `json:"gzip_hits"`
	GzipPct     float64           `json:"gzip_pct"`
	MeanMs      float64           `json:"mean_ms"`
	MaxMs       float64           `json:"max_ms"`
	P50Ms       float64           `json:"p50_ms"`
	P95Ms       float64           `json:"p95_ms"`
	P99Ms       float64           `json:"p99_ms"`
	// LatencyLog2Ns is the non-empty log2 latency histogram:
	// bucket i counts requests with duration in [2^i, 2^(i+1)) ns.
	LatencyLog2Ns map[int]uint64 `json:"latency_log2_ns,omitempty"`
	SLO           SLOStatus      `json:"slo"`
}

// Status is the /status payload: the serving path's own telemetry.
type Status struct {
	UptimeSec    float64          `json:"uptime_sec"`
	Requests     uint64           `json:"requests"`
	InFlight     int64            `json:"in_flight"`
	Errors       uint64           `json:"errors"`
	SLOLatencyMs float64          `json:"slo_latency_ms"`
	SLOErrorPct  float64          `json:"slo_error_pct"`
	Endpoints    []EndpointStatus `json:"endpoints"`
	Burns        []Burn           `json:"burns"`
	SlowRequests []SlowRequest    `json:"slow_requests"`
	SlowDropped  uint64           `json:"slow_dropped"`
}

var classNames = [6]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx"}

// Report assembles the point-in-time status. Endpoints that have seen
// no traffic are omitted; the rest are sorted by name.
func (o *Obs) Report() Status {
	lat, errPct := o.SLO()
	st := Status{
		UptimeSec:    o.now().Sub(o.start).Seconds(),
		Requests:     o.requests.Load(),
		InFlight:     o.inflight.Load(),
		SLOLatencyMs: lat,
		SLOErrorPct:  errPct,
		Endpoints:    []EndpointStatus{},
		Burns:        []Burn{},
	}
	o.mu.RLock()
	eps := make([]*endpointStats, 0, len(o.endpoints))
	for _, ep := range o.endpoints {
		eps = append(eps, ep)
	}
	o.mu.RUnlock()
	sort.Slice(eps, func(i, j int) bool { return eps[i].name < eps[j].name })
	for _, ep := range eps {
		n := ep.requests.Load()
		if n == 0 {
			continue
		}
		es := EndpointStatus{
			Endpoint: ep.name,
			Requests: n,
			InFlight: ep.inflight.Load(),
			Errors:   ep.errors.Load(),
			BytesIn:  ep.bytesIn.Load(),
			BytesOut: ep.bytesOut.Load(),
			GzipHits: ep.gzipHits.Load(),
			MaxMs:    float64(ep.maxNs.Load()) / 1e6,
		}
		st.Errors += es.Errors
		es.ErrorPct = 100 * float64(es.Errors) / float64(n)
		es.GzipPct = 100 * float64(es.GzipHits) / float64(n)
		for i := range ep.class {
			if c := ep.class[i].Load(); c > 0 {
				if es.StatusClass == nil {
					es.StatusClass = map[string]uint64{}
				}
				es.StatusClass[classNames[i]] = c
			}
		}
		for i := range ep.buckets {
			if c := ep.buckets[i].Load(); c > 0 {
				if es.LatencyLog2Ns == nil {
					es.LatencyLog2Ns = map[int]uint64{}
				}
				es.LatencyLog2Ns[i] = c
			}
		}
		ep.mu.Lock()
		es.MeanMs = ep.wf.Mean()
		es.P50Ms = ep.rq.Quantile(50)
		es.P95Ms = ep.rq.Quantile(95)
		es.P99Ms = ep.rq.Quantile(99)
		ep.mu.Unlock()
		es.SLO = SLOStatus{
			LatencyTargetMs:  lat,
			LatencyAttainPct: 100 * float64(ep.inSLO.Load()) / float64(n),
			ErrorTargetPct:   errPct,
			ErrorPct:         es.ErrorPct,
		}
		if n >= MinSLORequests {
			es.SLO.LatencyBurn = es.SLO.LatencyAttainPct < 99.0
			es.SLO.ErrorBurn = es.ErrorPct > errPct
		}
		es.SLO.OK = !es.SLO.LatencyBurn && !es.SLO.ErrorBurn
		if es.SLO.LatencyBurn {
			st.Burns = append(st.Burns, Burn{
				Endpoint: ep.name, Kind: "latency",
				Detail: fmt.Sprintf("attainment %.1f%% under the %.0fms target (p99 %.1fms)",
					es.SLO.LatencyAttainPct, lat, es.P99Ms),
			})
		}
		if es.SLO.ErrorBurn {
			st.Burns = append(st.Burns, Burn{
				Endpoint: ep.name, Kind: "error",
				Detail: fmt.Sprintf("error rate %.2f%% over the %.2f%% target", es.ErrorPct, errPct),
			})
		}
		st.Endpoints = append(st.Endpoints, es)
	}
	o.slowMu.Lock()
	st.SlowRequests = make([]SlowRequest, 0, o.slowN)
	for i := 0; i < o.slowN; i++ {
		st.SlowRequests = append(st.SlowRequests, o.slow[(o.slowStart+i)%len(o.slow)])
	}
	st.SlowDropped = o.slowDropped
	o.slowMu.Unlock()
	return st
}
