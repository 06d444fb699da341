package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hetpapi/internal/spantrace"
	"hetpapi/internal/telemetry"
	"hetpapi/internal/telemetry/client"
	"hetpapi/internal/telemetry/httpobs"
)

// statusOf fetches and decodes /status.
func statusOf(t *testing.T, ts *httptest.Server) httpobs.Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /status = %d", resp.StatusCode)
	}
	var st httpobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /status: %v", err)
	}
	return st
}

func findEndpoint(t *testing.T, st httpobs.Status, name string) httpobs.EndpointStatus {
	t.Helper()
	for _, es := range st.Endpoints {
		if es.Endpoint == name {
			return es
		}
	}
	t.Fatalf("endpoint %q missing from /status: %+v", name, st.Endpoints)
	return httpobs.EndpointStatus{}
}

// TestServingTimeout503Counted drives a request into a mounted handler
// that outlives the request timeout: the client sees the TimeoutHandler's
// JSON 503 and the serving metrics count it against the endpoint.
func TestServingTimeout503Counted(t *testing.T) {
	_, srv := seededServer(t, 30*time.Millisecond)
	release := make(chan struct{})
	srv.Mount("/slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer close(release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/slow")
	if err != nil {
		t.Fatalf("GET /slow: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /slow = %d, want 503", resp.StatusCode)
	}
	var apiErr telemetry.APIError
	if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Status != 503 {
		t.Fatalf("timeout body %q not the JSON error shape (err %v)", body, err)
	}

	st := statusOf(t, ts)
	es := findEndpoint(t, st, "/slow")
	if es.Requests != 1 || es.StatusClass["5xx"] != 1 || es.Errors != 1 {
		t.Fatalf("/slow accounting after timeout: %+v", es)
	}
	if st.Errors < 1 {
		t.Fatalf("global error count %d after timeout", st.Errors)
	}
}

// TestDeadlineLateWritesFail drives handlers that keep writing after
// their deadline, interleaved with requests that finish in time. Every
// late write must return http.ErrHandlerTimeout, and no later request may
// be served through a timed-out handler's writer: a writer that went back
// to the pool would be emptied, so late writes would succeed, or handed
// to another request while the late handler still holds it. Both servers
// draw on the one pool of writers, and with one P the pool hands back what
// was put last.
func TestDeadlineLateWritesFail(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, fast := seededServer(t, 10*time.Millisecond)
	held := make(chan http.ResponseWriter)
	write := make(chan bool)
	late := make(chan error)
	fast.Mount("/late", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		held <- w
		for <-write {
			_, err := w.Write([]byte(`{"late":true}`))
			w.WriteHeader(http.StatusOK)
			late <- err
		}
	}))
	_, slow := seededServer(t, 5*time.Second)
	var served http.ResponseWriter
	slow.Mount("/ontime", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served = w
		telemetry.WriteJSON(w, http.StatusOK, telemetry.HealthInfo{Status: "ok"})
	}))
	lateH, ontimeH := fast.Handler(), slow.Handler()

	var timedOut []http.ResponseWriter
	for round := 0; round < 4; round++ {
		rec := httptest.NewRecorder()
		lateH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/late", nil))
		if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != `{"status":503,"error":"request timed out"}` {
			t.Fatalf("/late past its deadline: %d %q", rec.Code, rec.Body.String())
		}
		timedOut = append(timedOut, <-held)
		for i := 0; i < 5; i++ {
			rec := httptest.NewRecorder()
			ontimeH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ontime", nil))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status": "ok"`) {
				t.Fatalf("/ontime after a timed-out request: %d %q", rec.Code, rec.Body.String())
			}
			if slices.Contains(timedOut, served) {
				t.Fatalf("round %d: /ontime request %d was served through a timed-out handler's writer", round, i)
			}
			write <- true
			if err := <-late; err != http.ErrHandlerTimeout {
				t.Fatalf("round %d: late write %d returned %v, want http.ErrHandlerTimeout", round, i, err)
			}
		}
		write <- false
	}
}

// TestDeadlineRepanics checks that a handler panic reaches the serving
// goroutine with its value, as it does through http.TimeoutHandler, so
// net/http's per-connection recovery still logs it.
func TestDeadlineRepanics(t *testing.T) {
	boom := http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") })
	recovered := func(h http.Handler) (p any) {
		defer func() { p = recover() }()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/boom", nil))
		return nil
	}
	if p := recovered(http.TimeoutHandler(boom, time.Second, "")); p != "boom" {
		t.Fatalf("http.TimeoutHandler re-raised %v", p)
	}
	_, srv := seededServer(t, time.Second)
	srv.Mount("/boom", boom)
	if p := recovered(srv.BareHandler()); p != "boom" {
		t.Fatalf("the deadline handler re-raised %v, want the handler's panic", p)
	}
}

// TestDeadlineWriterAsNetHTTP checks the rest of what the port keeps
// from net/http's timeoutWriter: a second WriteHeader is logged to the
// serving http.Server's ErrorLog, naming the handler that made it; an
// invalid status code panics; and Push passes through to a writer that
// cannot push as http.ErrNotSupported.
func TestDeadlineWriterAsNetHTTP(t *testing.T) {
	_, srv := seededServer(t, 5*time.Second)
	var pushErr error
	srv.Mount("/twice", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pushErr = w.(http.Pusher).Push("/health", nil)
		w.WriteHeader(http.StatusAccepted)
		w.WriteHeader(http.StatusOK)
	}))
	srv.Mount("/badcode", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(42) }))
	var logged bytes.Buffer
	hs := &http.Server{ErrorLog: log.New(&logged, "", 0)}
	req := httptest.NewRequest(http.MethodGet, "/twice", nil)
	req = req.WithContext(context.WithValue(req.Context(), http.ServerContextKey, hs))
	rec := httptest.NewRecorder()
	srv.BareHandler().ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("/twice: status %d, want the first WriteHeader's 202", rec.Code)
	}
	if pushErr != http.ErrNotSupported {
		t.Fatalf("Push through a recorder returned %v, want http.ErrNotSupported", pushErr)
	}
	if got := logged.String(); !strings.Contains(got, "http: superfluous response.WriteHeader call from hetpapi/internal/telemetry_test.TestDeadlineWriterAsNetHTTP") ||
		!strings.Contains(got, "serving_test.go:") {
		t.Fatalf("superfluous WriteHeader logged %q", got)
	}
	p := func() (p any) {
		defer func() { p = recover() }()
		srv.BareHandler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/badcode", nil))
		return nil
	}()
	if p != "invalid WriteHeader code 42" {
		t.Fatalf("WriteHeader(42) raised %v", p)
	}
}

// TestServingErrorShapeUnified checks that the fallback 404, the
// method-guard 405 and a handler 400 all answer with the shared JSON
// error shape and count into the serving metrics.
func TestServingErrorShapeUnified(t *testing.T) {
	_, srv := seededServer(t, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		method, path string
		wantStatus   int
	}{
		{"GET", "/no/such/path", 404},
		{"POST", "/health", 405},
		{"DELETE", "/query", 405},
		{"GET", "/query?machine=mach", 400},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Fatalf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.wantStatus)
		}
		var apiErr telemetry.APIError
		if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Status != c.wantStatus || apiErr.Error == "" {
			t.Fatalf("%s %s body %q is not the unified error shape (err %v)", c.method, c.path, body, err)
		}
	}
	if resp, err := http.Get(ts.URL + "/no/such/path"); err == nil {
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("404 content type %q", ct)
		}
		resp.Body.Close()
	}

	st := statusOf(t, ts)
	// The unknown paths (2 of them now) land in the "other" bucket; the
	// 405s are attributed to their endpoint's path; the 400 to /query.
	other := findEndpoint(t, st, httpobs.OtherEndpoint)
	if other.Requests != 2 || other.Errors != 2 || other.StatusClass["4xx"] != 2 {
		t.Fatalf("other bucket: %+v", other)
	}
	if es := findEndpoint(t, st, "/health"); es.Errors != 1 || es.StatusClass["4xx"] != 1 {
		t.Fatalf("/health 405 accounting: %+v", es)
	}
	if es := findEndpoint(t, st, "/query"); es.Errors != 2 {
		t.Fatalf("/query 405+400 accounting: %+v", es)
	}
}

// TestStatusDeterministicCounts drives a fixed request sequence and
// checks the count-level view of /status is exactly determined by it
// (latency fields ride the wall clock; everything else must not).
func TestStatusDeterministicCounts(t *testing.T) {
	_, srv := seededServer(t, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	paths := []string{
		"/health", "/health", "/series?machine=mach", "/query?machine=mach&series=power_w",
		"/query?machine=nope&series=power_w", "/missing", "/metrics",
	}
	for _, p := range paths {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	want := map[string]struct {
		requests, errors uint64
		class            string
	}{
		"/health":             {2, 0, "2xx"},
		"/series":             {1, 0, "2xx"},
		"/query":              {2, 1, ""},
		httpobs.OtherEndpoint: {1, 1, "4xx"},
		"/metrics":            {1, 0, "2xx"},
	}
	for round := 0; round < 2; round++ {
		st := statusOf(t, ts)
		for name, w := range want {
			es := findEndpoint(t, st, name)
			if es.Requests != w.requests || es.Errors != w.errors {
				t.Fatalf("round %d: %s = %d req / %d err, want %d / %d",
					round, name, es.Requests, es.Errors, w.requests, w.errors)
			}
			if w.class != "" && es.StatusClass[w.class] != w.requests {
				t.Fatalf("round %d: %s classes %v", round, name, es.StatusClass)
			}
		}
		// /status itself is counted from the second fetch onward.
		if round == 1 {
			if es := findEndpoint(t, st, "/status"); es.Requests != 1 {
				t.Fatalf("/status self-accounting: %+v", es)
			}
		}
		if st.SlowDropped != 0 {
			t.Fatalf("round %d: slow drops from a short sequence: %d", round, st.SlowDropped)
		}
	}
}

// TestServingGzipHit checks the gzip-negotiated path increments the
// endpoint's gzip-hit counter.
func TestServingGzipHit(t *testing.T) {
	_, srv := seededServer(t, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/series?machine=mach", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	tr := &http.Transport{DisableCompression: true}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatalf("GET /series: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatal("response not gzip-encoded")
	}

	st := statusOf(t, ts)
	if es := findEndpoint(t, st, "/series"); es.GzipHits != 1 {
		t.Fatalf("/series gzip hits: %+v", es)
	}
}

// TestHTTPTraceEndpoint attaches a serving-path tracer and checks the
// per-request spans come back through /trace?machine=http.
func TestHTTPTraceEndpoint(t *testing.T) {
	_, srv := seededServer(t, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Before attachment, /trace?machine=http is a JSON 404.
	resp, err := http.Get(ts.URL + "/trace?machine=http")
	if err != nil {
		t.Fatalf("GET /trace: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("trace before attach = %d, want 404", resp.StatusCode)
	}

	rec := spantrace.New(spantrace.Config{})
	rec.Enable()
	srv.AttachHTTPTracer(rec)
	for i := 0; i < 3; i++ {
		r, err := http.Get(ts.URL + "/health")
		if err != nil {
			t.Fatalf("GET /health: %v", err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}

	resp, err = http.Get(ts.URL + "/trace?machine=http")
	if err != nil {
		t.Fatalf("GET /trace: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace after attach = %d: %s", resp.StatusCode, body)
	}
	text := string(body)
	if !strings.Contains(text, `"http./health"`) || !strings.Contains(text, "http.serve") {
		t.Fatalf("trace export missing serving spans: %.200s", text)
	}
	var export map[string]any
	if err := json.Unmarshal(body, &export); err != nil {
		t.Fatalf("trace export not JSON: %v", err)
	}
}

// TestServingMetricsExposition checks the hetpapid_http_* families ride
// the /metrics exposition.
func TestServingMetricsExposition(t *testing.T) {
	_, srv := seededServer(t, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		`hetpapid_http_requests_total{endpoint="/health",class="2xx"} 1`,
		"# TYPE hetpapid_http_latency_ms gauge",
		`hetpapid_http_slo_attainment_pct{endpoint="/health"} 100`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}

	// The typed client decodes /status too.
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("client status: %v", err)
	}
	if st.Requests < 2 {
		t.Fatalf("client status requests = %d", st.Requests)
	}
}

// TestServingConcurrentScrapeVsIngest hammers ingestion and the serving
// surface at once; the race detector and the final count checks are the
// assertions.
func TestServingConcurrentScrapeVsIngest(t *testing.T) {
	store, srv := seededServer(t, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const writers, readers, iters = 4, 4, 50
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			key := telemetry.Key{Machine: "mach", Series: "power_w"}
			for i := 0; i < iters; i++ {
				store.Append(key, float64(100+wr*iters+i), 40)
			}
		}(wr)
	}
	paths := []string{"/status", "/metrics", "/query?machine=mach&series=power_w", "/series?machine=mach"}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(ts.URL + paths[(rd+i)%len(paths)])
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(rd)
	}
	wg.Wait()

	// The /status request reporting is recorded only after its own
	// handler returns, so the snapshot covers exactly the load above.
	st := statusOf(t, ts)
	if st.Requests != readers*iters {
		t.Fatalf("requests = %d, want %d", st.Requests, readers*iters)
	}
	if st.Errors != 0 {
		t.Fatalf("errors = %d under concurrent load", st.Errors)
	}
}
