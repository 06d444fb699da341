package httpobs

import (
	"io"

	"hetpapi/internal/telemetry/promtext"
)

// WritePrometheus appends the hetpapid_http_* families to a /metrics
// exposition: per-endpoint request/status-class/error counters,
// in-flight and byte gauges, gzip hits, latency percentiles and SLO
// attainment/burn gauges, plus the slow-ring fill. Endpoints with no
// traffic are omitted, keeping the exposition proportional to what the
// daemon actually served.
func (o *Obs) WritePrometheus(w io.Writer) {
	req := promtext.Family{Name: "hetpapid_http_requests_total", Help: "Requests served, by endpoint and status class.", Type: "counter"}
	errs := promtext.Family{Name: "hetpapid_http_errors_total", Help: "Requests answered with status >= 400, by endpoint.", Type: "counter"}
	infl := promtext.Family{Name: "hetpapid_http_in_flight", Help: "Requests currently being served, by endpoint.", Type: "gauge"}
	bin := promtext.Family{Name: "hetpapid_http_request_bytes_total", Help: "Request body bytes received, by endpoint.", Type: "counter"}
	bout := promtext.Family{Name: "hetpapid_http_response_bytes_total", Help: "Response body bytes written (post-compression), by endpoint.", Type: "counter"}
	gz := promtext.Family{Name: "hetpapid_http_gzip_hits_total", Help: "Responses served with gzip content-encoding, by endpoint.", Type: "counter"}
	lat := promtext.Family{Name: "hetpapid_http_latency_ms", Help: "Request latency percentiles over the recent window, by endpoint.", Type: "gauge"}
	attain := promtext.Family{Name: "hetpapid_http_slo_attainment_pct", Help: "Percentage of requests within the latency SLO target, by endpoint.", Type: "gauge"}
	burn := promtext.Family{Name: "hetpapid_http_slo_burn", Help: "1 when the endpoint is currently burning a serving objective, by endpoint and kind.", Type: "gauge"}
	slow := promtext.Family{Name: "hetpapid_http_slow_requests", Help: "Slow requests currently held in the bounded ring.", Type: "gauge"}
	slowDrop := promtext.Family{Name: "hetpapid_http_slow_dropped_total", Help: "Slow-ring entries dropped by wraparound.", Type: "counter"}

	st := o.Report()
	for _, es := range st.Endpoints {
		ep := es.Endpoint
		for _, class := range classNames {
			if n, ok := es.StatusClass[class]; ok {
				req.Sample(float64(n), "endpoint", ep, "class", class)
			}
		}
		errs.Sample(float64(es.Errors), "endpoint", ep)
		infl.Sample(float64(es.InFlight), "endpoint", ep)
		bin.Sample(float64(es.BytesIn), "endpoint", ep)
		bout.Sample(float64(es.BytesOut), "endpoint", ep)
		gz.Sample(float64(es.GzipHits), "endpoint", ep)
		lat.Sample(es.P50Ms, "endpoint", ep, "quantile", "0.5")
		lat.Sample(es.P95Ms, "endpoint", ep, "quantile", "0.95")
		lat.Sample(es.P99Ms, "endpoint", ep, "quantile", "0.99")
		attain.Sample(es.SLO.LatencyAttainPct, "endpoint", ep)
		burn.Sample(b2f(es.SLO.LatencyBurn), "endpoint", ep, "kind", "latency")
		burn.Sample(b2f(es.SLO.ErrorBurn), "endpoint", ep, "kind", "error")
	}
	slow.Sample(float64(len(st.SlowRequests)), "ring", "slow")
	slowDrop.Sample(float64(st.SlowDropped), "ring", "slow")

	// Like the rest of a /metrics response, a failed write has no one to
	// report to.
	_ = promtext.Write(w, &req, &errs, &infl, &bin, &bout, &gz, &lat, &attain, &burn, &slow, &slowDrop)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
