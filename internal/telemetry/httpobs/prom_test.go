package httpobs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fmtFamily and fmtWritePrometheus are the former exposition writer of
// the hetpapid_http_* families, one fmt.Sprintf per sample line: the
// reference WritePrometheus's bytes are pinned to.
type fmtFamily struct {
	name, help, kind string
	lines            []string
}

func (f *fmtFamily) add(labels string, v float64) {
	f.lines = append(f.lines, fmt.Sprintf("%s{%s} %g", f.name, labels, v))
}

func fmtWritePrometheus(o *Obs, w io.Writer) {
	req := &fmtFamily{name: "hetpapid_http_requests_total", help: "Requests served, by endpoint and status class.", kind: "counter"}
	errs := &fmtFamily{name: "hetpapid_http_errors_total", help: "Requests answered with status >= 400, by endpoint.", kind: "counter"}
	infl := &fmtFamily{name: "hetpapid_http_in_flight", help: "Requests currently being served, by endpoint.", kind: "gauge"}
	bin := &fmtFamily{name: "hetpapid_http_request_bytes_total", help: "Request body bytes received, by endpoint.", kind: "counter"}
	bout := &fmtFamily{name: "hetpapid_http_response_bytes_total", help: "Response body bytes written (post-compression), by endpoint.", kind: "counter"}
	gz := &fmtFamily{name: "hetpapid_http_gzip_hits_total", help: "Responses served with gzip content-encoding, by endpoint.", kind: "counter"}
	lat := &fmtFamily{name: "hetpapid_http_latency_ms", help: "Request latency percentiles over the recent window, by endpoint.", kind: "gauge"}
	attain := &fmtFamily{name: "hetpapid_http_slo_attainment_pct", help: "Percentage of requests within the latency SLO target, by endpoint.", kind: "gauge"}
	burn := &fmtFamily{name: "hetpapid_http_slo_burn", help: "1 when the endpoint is currently burning a serving objective, by endpoint and kind.", kind: "gauge"}
	slow := &fmtFamily{name: "hetpapid_http_slow_requests", help: "Slow requests currently held in the bounded ring.", kind: "gauge"}
	slowDrop := &fmtFamily{name: "hetpapid_http_slow_dropped_total", help: "Slow-ring entries dropped by wraparound.", kind: "counter"}

	st := o.Report()
	for _, es := range st.Endpoints {
		el := fmt.Sprintf("endpoint=%q", es.Endpoint)
		for _, class := range classNames {
			if n, ok := es.StatusClass[class]; ok {
				req.add(fmt.Sprintf("%s,class=%q", el, class), float64(n))
			}
		}
		errs.add(el, float64(es.Errors))
		infl.add(el, float64(es.InFlight))
		bin.add(el, float64(es.BytesIn))
		bout.add(el, float64(es.BytesOut))
		gz.add(el, float64(es.GzipHits))
		lat.add(el+`,quantile="0.5"`, es.P50Ms)
		lat.add(el+`,quantile="0.95"`, es.P95Ms)
		lat.add(el+`,quantile="0.99"`, es.P99Ms)
		attain.add(el, es.SLO.LatencyAttainPct)
		burn.add(el+`,kind="latency"`, b2f(es.SLO.LatencyBurn))
		burn.add(el+`,kind="error"`, b2f(es.SLO.ErrorBurn))
	}
	slow.add(`ring="slow"`, float64(len(st.SlowRequests)))
	slowDrop.add(`ring="slow"`, float64(st.SlowDropped))

	for _, f := range []*fmtFamily{req, errs, infl, bin, bout, gz, lat, attain, burn, slow, slowDrop} {
		if len(f.lines) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, line := range f.lines {
			fmt.Fprintln(w, line)
		}
	}
}

// TestWritePrometheusMatchesFmtReference drives the fake-clock rig
// through every status class, gzip and plain responses, latencies that
// burn the SLO and wrap the slow ring, and endpoint names that need
// quoting, then compares the exposition with the former writer's bytes
// at each step, starting from an observer that has served nothing.
func TestWritePrometheusMatchesFmtReference(t *testing.T) {
	weird := []string{`/we"ird\path`, "/ünï/机器", "/new\nline"}
	inner := func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/gz":
			w.Header().Set("Content-Encoding", "gzip")
			w.Write([]byte("zz"))
		case "/fail":
			w.WriteHeader(503)
		case "/redirect":
			w.WriteHeader(302)
		case "/missing":
			w.WriteHeader(404)
		default:
			w.Write([]byte("ok"))
		}
	}
	r := newRig(Config{
		Endpoints:        append([]string{"/q", "/gz", "/fail", "/redirect", "/missing"}, weird...),
		SlowThreshold:    20 * time.Millisecond,
		SlowRingCapacity: 3,
		SLOLatencyMs:     50,
	}, inner)
	check := func(when string) {
		t.Helper()
		var got, want bytes.Buffer
		r.obs.WritePrometheus(&got)
		fmtWritePrometheus(r.obs, &want)
		if got.String() != want.String() {
			t.Fatalf("%s: exposition differs from the fmt writer:\n got:\n%s\nwant:\n%s", when, got.String(), want.String())
		}
	}
	check("no traffic")
	steps := []time.Duration{time.Millisecond, 3 * time.Millisecond, 33 * time.Millisecond, 250 * time.Millisecond, 1500 * time.Microsecond}
	paths := append([]string{"/q", "/gz", "/fail", "/redirect", "/missing", "/unregistered"}, weird...)
	for i := 0; i < 200; i++ {
		r.clock.setStep(steps[i%len(steps)])
		// Set the path after parsing: NewRequest rejects raw newlines.
		req := httptest.NewRequest("GET", "/", nil)
		req.URL.Path = paths[i%len(paths)]
		r.h.ServeHTTP(httptest.NewRecorder(), req)
		if i%37 == 0 {
			check(fmt.Sprintf("after %d requests", i+1))
		}
	}
	check("after all requests")
	if st := r.obs.Report(); st.SlowDropped == 0 || len(st.Burns) == 0 {
		t.Fatalf("the rig did not wrap the slow ring or burn an SLO: dropped %d, burns %v", st.SlowDropped, st.Burns)
	}
}
