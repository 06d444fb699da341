package httpobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hetpapi/internal/spantrace"
)

// fakeClock advances by step on every Now call, making request
// latencies (measured as one start-to-end Now pair) exactly step.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func (c *fakeClock) setStep(d time.Duration) {
	c.mu.Lock()
	c.step = d
	c.mu.Unlock()
}

// rig builds an Obs around a configurable handler and returns a
// serve(path) helper driving requests through the middleware.
type rig struct {
	obs   *Obs
	clock *fakeClock
	h     http.Handler
}

func newRig(cfg Config, inner http.HandlerFunc) *rig {
	clock := newFakeClock()
	cfg.Now = clock.Now
	o := New(cfg)
	return &rig{obs: o, clock: clock, h: o.Middleware(inner)}
}

func (r *rig) do(method, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	return rec
}

func endpointByName(t *testing.T, st Status, name string) EndpointStatus {
	t.Helper()
	for _, es := range st.Endpoints {
		if es.Endpoint == name {
			return es
		}
	}
	t.Fatalf("endpoint %q not in status: %+v", name, st.Endpoints)
	return EndpointStatus{}
}

func TestEndpointAccounting(t *testing.T) {
	inner := func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ok":
			w.Write([]byte("hello world"))
		case "/gz":
			w.Header().Set("Content-Encoding", "gzip")
			w.WriteHeader(200)
			w.Write([]byte("zz"))
		case "/fail":
			w.WriteHeader(500)
			w.Write([]byte("boom"))
		default:
			w.WriteHeader(404)
		}
	}
	r := newRig(Config{Endpoints: []string{"/ok", "/gz", "/fail"}, SlowThreshold: -1}, inner)
	r.clock.setStep(2 * time.Millisecond)
	for i := 0; i < 3; i++ {
		r.do("GET", "/ok")
	}
	r.do("GET", "/gz")
	r.do("GET", "/fail")
	r.do("GET", "/no-such-path")

	st := r.obs.Report()
	if st.Requests != 6 {
		t.Fatalf("total requests = %d, want 6", st.Requests)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after all requests done", st.InFlight)
	}
	if st.Errors != 2 { // 500 + 404
		t.Fatalf("total errors = %d, want 2", st.Errors)
	}

	ok := endpointByName(t, st, "/ok")
	if ok.Requests != 3 || ok.Errors != 0 || ok.StatusClass["2xx"] != 3 {
		t.Fatalf("/ok stats: %+v", ok)
	}
	if ok.BytesOut != 3*uint64(len("hello world")) {
		t.Fatalf("/ok bytes out = %d", ok.BytesOut)
	}
	// The fake clock makes every request exactly 2ms.
	if ok.MeanMs != 2 || ok.P50Ms != 2 || ok.P99Ms != 2 || ok.MaxMs != 2 {
		t.Fatalf("/ok latency: mean %g p50 %g p99 %g max %g, want all 2",
			ok.MeanMs, ok.P50Ms, ok.P99Ms, ok.MaxMs)
	}
	// 2ms = 2e6 ns -> bucket floor(log2(2e6)) = 20.
	if ok.LatencyLog2Ns[20] != 3 {
		t.Fatalf("/ok histogram: %v, want bucket 20 = 3", ok.LatencyLog2Ns)
	}

	gz := endpointByName(t, st, "/gz")
	if gz.GzipHits != 1 || gz.GzipPct != 100 {
		t.Fatalf("/gz gzip stats: %+v", gz)
	}
	if fail := endpointByName(t, st, "/fail"); fail.Errors != 1 || fail.StatusClass["5xx"] != 1 {
		t.Fatalf("/fail stats: %+v", fail)
	}
	// Unmatched paths land in the "other" bucket with their status.
	other := endpointByName(t, st, OtherEndpoint)
	if other.Requests != 1 || other.StatusClass["4xx"] != 1 || other.Errors != 1 {
		t.Fatalf("other stats: %+v", other)
	}
}

func TestSlowRingWraparound(t *testing.T) {
	inner := func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) }
	r := newRig(Config{
		Endpoints:        []string{"/x"},
		SlowRingCapacity: 4,
		SlowThreshold:    time.Millisecond,
	}, inner)
	r.clock.setStep(5 * time.Millisecond) // every request is slow
	for i := 0; i < 10; i++ {
		r.do("GET", fmt.Sprintf("/x?i=%d", i))
	}
	st := r.obs.Report()
	if len(st.SlowRequests) != 4 {
		t.Fatalf("slow ring holds %d, want 4", len(st.SlowRequests))
	}
	if st.SlowDropped != 6 {
		t.Fatalf("slow dropped = %d, want 6", st.SlowDropped)
	}
	// The ring keeps the most recent entries, oldest first, and arrival
	// times must ascend.
	for i := 1; i < len(st.SlowRequests); i++ {
		if st.SlowRequests[i].AtSec <= st.SlowRequests[i-1].AtSec {
			t.Fatalf("slow ring not time-ordered: %+v", st.SlowRequests)
		}
	}
	if got := st.SlowRequests[0]; got.Method != "GET" || got.Path != "/x" || got.Status != 200 || got.DurMs != 5 {
		t.Fatalf("slow entry %+v", got)
	}

	// Fast requests stay out of the ring.
	r.clock.setStep(10 * time.Microsecond)
	r.do("GET", "/x")
	if st = r.obs.Report(); len(st.SlowRequests) != 4 || st.SlowDropped != 6 {
		t.Fatalf("fast request entered the slow ring: %+v", st.SlowRequests)
	}
}

func TestSLOBurnFlags(t *testing.T) {
	inner := func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/err") {
			w.WriteHeader(500)
			return
		}
		w.WriteHeader(200)
	}
	r := newRig(Config{
		Endpoints:     []string{"/fast", "/slow", "/err"},
		SLOLatencyMs:  10,
		SLOErrorPct:   1.0,
		SlowThreshold: -1,
	}, inner)

	// Below the sample floor nothing burns, however bad the latencies.
	r.clock.setStep(50 * time.Millisecond)
	for i := 0; i < MinSLORequests-1; i++ {
		r.do("GET", "/slow")
	}
	st := r.obs.Report()
	if es := endpointByName(t, st, "/slow"); es.SLO.LatencyBurn || !es.SLO.OK {
		t.Fatalf("burn below the sample floor: %+v", es.SLO)
	}

	// One more slow request crosses the floor: 10/10 requests over the
	// 10ms target -> attainment 0%, latency burn.
	r.do("GET", "/slow")
	st = r.obs.Report()
	es := endpointByName(t, st, "/slow")
	if es.SLO.LatencyAttainPct != 0 || !es.SLO.LatencyBurn || es.SLO.ErrorBurn || es.SLO.OK {
		t.Fatalf("slow endpoint SLO: %+v", es.SLO)
	}

	// A healthy endpoint: all requests under target, no errors.
	r.clock.setStep(time.Millisecond)
	for i := 0; i < 2*MinSLORequests; i++ {
		r.do("GET", "/fast")
	}
	// An erroring endpoint: all 500s, still fast.
	for i := 0; i < 2*MinSLORequests; i++ {
		r.do("GET", "/err")
	}
	st = r.obs.Report()
	if es := endpointByName(t, st, "/fast"); !es.SLO.OK || es.SLO.LatencyAttainPct != 100 {
		t.Fatalf("fast endpoint SLO: %+v", es.SLO)
	}
	if es := endpointByName(t, st, "/err"); !es.SLO.ErrorBurn || es.SLO.LatencyBurn {
		t.Fatalf("err endpoint SLO: %+v", es.SLO)
	}

	// The burn ledger carries one latency and one error entry.
	var lat, errb int
	for _, b := range st.Burns {
		switch {
		case b.Kind == "latency" && b.Endpoint == "/slow":
			lat++
		case b.Kind == "error" && b.Endpoint == "/err":
			errb++
		default:
			t.Fatalf("unexpected burn %+v", b)
		}
	}
	if lat != 1 || errb != 1 {
		t.Fatalf("burn ledger: %+v", st.Burns)
	}

	// Retargeting the SLO applies to subsequent burn judgments: an error
	// target of 100% tolerates even the all-500 endpoint.
	r.obs.SetSLO(1000, 100)
	st = r.obs.Report()
	if es := endpointByName(t, st, "/err"); es.SLO.ErrorBurn {
		t.Fatalf("err endpoint still burning after retarget: %+v", es.SLO)
	}
}

func TestInFlightGauge(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	inner := func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(200)
	}
	o := New(Config{Endpoints: []string{"/block"}})
	h := o.Middleware(http.HandlerFunc(inner))
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/block", nil))
	}()
	<-entered
	st := o.Report()
	if st.InFlight != 1 {
		t.Fatalf("in-flight = %d with a blocked handler", st.InFlight)
	}
	// The blocked endpoint has seen no *completed* request yet, so it is
	// absent from the per-endpoint list; the global gauge carries it.
	close(release)
	<-done
	st = o.Report()
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after completion", st.InFlight)
	}
	if es := endpointByName(t, st, "/block"); es.InFlight != 0 || es.Requests != 1 {
		t.Fatalf("endpoint after completion: %+v", es)
	}
}

func TestSpanEmission(t *testing.T) {
	inner := func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("12345")) }
	r := newRig(Config{Endpoints: []string{"/health"}, SlowThreshold: -1}, inner)
	rec := spantrace.New(spantrace.Config{})
	rec.Enable()
	r.obs.AttachTracer(rec)
	r.clock.setStep(time.Millisecond)
	r.do("GET", "/health")
	r.do("GET", "/unknown")

	snap := rec.Snapshot()
	if len(snap.Events) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(snap.Events))
	}
	ev := snap.Events[0]
	if ev.Name != "http./health" || ev.Cat != "http" || ev.Phase != spantrace.PhaseSpan {
		t.Fatalf("span %+v", ev)
	}
	if ev.DurSec != 0.001 {
		t.Fatalf("span duration %g, want 0.001", ev.DurSec)
	}
	args := map[string]spantrace.Arg{}
	for _, a := range ev.Args {
		args[a.Key] = a
	}
	if args["status"].FVal != 200 || args["bytes_out"].FVal != 5 || args["method"].SVal != "GET" {
		t.Fatalf("span args %+v", ev.Args)
	}
	if snap.Events[1].Name != "http."+OtherEndpoint {
		t.Fatalf("unmatched path span %q", snap.Events[1].Name)
	}
	if len(snap.Contexts) != 1 {
		t.Fatalf("contexts %+v, want the one http.serve context", snap.Contexts)
	}

	// Detaching stops emission.
	r.obs.AttachTracer(nil)
	r.do("GET", "/health")
	if got := len(rec.Snapshot().Events); got != 2 {
		t.Fatalf("span emitted after detach: %d", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	inner := func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fail" {
			w.WriteHeader(503)
			return
		}
		w.Write([]byte("ok"))
	}
	r := newRig(Config{Endpoints: []string{"/q", "/fail"}, SlowThreshold: time.Millisecond}, inner)
	r.clock.setStep(4 * time.Millisecond)
	r.do("GET", "/q")
	r.do("GET", "/q")
	r.do("GET", "/fail")

	var b strings.Builder
	r.obs.WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		`hetpapid_http_requests_total{endpoint="/q",class="2xx"} 2`,
		`hetpapid_http_requests_total{endpoint="/fail",class="5xx"} 1`,
		`hetpapid_http_errors_total{endpoint="/fail"} 1`,
		`hetpapid_http_in_flight{endpoint="/q"} 0`,
		`hetpapid_http_response_bytes_total{endpoint="/q"} 4`,
		`hetpapid_http_latency_ms{endpoint="/q",quantile="0.99"} 4`,
		`hetpapid_http_slo_attainment_pct{endpoint="/q"} 100`,
		`hetpapid_http_slo_burn{endpoint="/q",kind="latency"} 0`,
		`hetpapid_http_slow_requests{ring="slow"} 3`,
		"# TYPE hetpapid_http_requests_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Two scrapes of identical state are byte-identical (no map-order
	// leakage into the exposition).
	var b2 strings.Builder
	r.obs.WritePrometheus(&b2)
	if text != b2.String() {
		t.Fatal("exposition not deterministic across scrapes")
	}
}

// TestConcurrentTraffic drives parallel requests and scrapes through
// the middleware; the race detector is the assertion.
func TestConcurrentTraffic(t *testing.T) {
	inner := func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("x")) }
	o := New(Config{Endpoints: []string{"/a", "/b"}, SlowThreshold: time.Nanosecond})
	h := o.Middleware(http.HandlerFunc(inner))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			path := "/a"
			if g%2 == 1 {
				path = "/b"
			}
			for i := 0; i < 200; i++ {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			st := o.Report()
			if st.InFlight < 0 {
				t.Error("negative in-flight")
				return
			}
			var b strings.Builder
			o.WritePrometheus(&b)
		}
	}()
	wg.Wait()
	st := o.Report()
	if st.Requests != 1600 {
		t.Fatalf("requests = %d, want 1600", st.Requests)
	}
	var sum uint64
	for _, es := range st.Endpoints {
		sum += es.Requests
	}
	if sum != 1600 {
		t.Fatalf("per-endpoint requests sum to %d, want 1600", sum)
	}
	if data, err := json.Marshal(st); err != nil || len(data) == 0 {
		t.Fatalf("status does not marshal: %v", err)
	}
}
