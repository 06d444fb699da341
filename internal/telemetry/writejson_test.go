package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"hetpapi/internal/fleet"
	"hetpapi/internal/hw"
	"hetpapi/internal/telemetry"
	"hetpapi/internal/telemetry/httpobs"
	"hetpapi/internal/validate"
)

// freshJSON is v as a new json.Encoder with WriteJSON's indent writes it:
// how every response was encoded before the encoders were pooled.
func freshJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encoding %T: %v", v, err)
	}
	return b.Bytes()
}

// pooledJSON is WriteJSON's body for v.
func pooledJSON(v any) []byte {
	rec := httptest.NewRecorder()
	telemetry.WriteJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// TestWriteJSONMatchesFreshEncoder checks that the pooled encoder writes
// every response type the server sends byte for byte as a fresh encoder
// does. Each value is the decoded body of a live endpoint on a streamed
// fleet, so it holds what the server really serves; the table runs
// forward and then backward, so each pooled encoder has already written
// both larger and smaller bodies. Each endpoint's own body must also be
// the fresh encoding of what it decodes to.
func TestWriteJSONMatchesFreshEncoder(t *testing.T) {
	f, err := fleet.Generate(fleet.GenConfig{Machines: 4, Seed: 3, StaggerSec: 0.2, Chaos: &fleet.ChaosConfig{IncidentRate: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	st := telemetry.NewStore(telemetry.Config{Capacity: 256})
	rep, err := fleet.Run(context.Background(), f, fleet.RunConfig{Streamer: telemetry.NewStreamer(st, 0)})
	if err != nil {
		t.Fatal(err)
	}
	srv := telemetry.NewServer(st, 0)
	srv.Register(f.Machines[0].ID, "fleet", "raptorlake", telemetry.NewStreamer(st, 0))
	mon := fleet.NewMonitor()
	mon.Register(srv)
	mon.SetReport(rep, nil)
	src, err := hw.LookupModel("homogeneous")
	if err != nil {
		t.Fatal(err)
	}
	card, err := validate.BuildScorecard([]validate.ModelSource{src})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetScorecard(card)
	h := srv.Handler()

	m := f.Machines[0].ID
	cases := []struct {
		target string
		code   int
		into   func() any
	}{
		{"/health", 200, func() any { return new(telemetry.HealthInfo) }},
		{"/machines", 200, func() any { return new([]telemetry.MachineInfo) }},
		{"/series?machine=" + m, 200, func() any { return new([]telemetry.SeriesInfo) }},
		{"/query?machine=" + m + "&series=power_w&agg=1", 200, func() any { return new(telemetry.QueryResponse) }},
		{"/query?machine=" + m + "&series=power_w&rung=1s&agg=1", 200, func() any { return new(telemetry.QueryResponse) }},
		{"/query?machine=" + m + "&kind=instructions&by=type", 200, func() any { return new(telemetry.QueryResponse) }},
		{"/fleet/query?rung=10s&timeline=1", 200, func() any { return new(telemetry.FleetQueryResponse) }},
		{"/fleet/query?rung=1m&type=nothing", 200, func() any { return new(telemetry.FleetQueryResponse) }},
		{"/degradations", 200, func() any { return new([]telemetry.DegradationInfo) }},
		{"/validate", 200, func() any { return new(validate.Scorecard) }},
		{"/status", 200, func() any { return new(httpobs.Status) }},
		{"/fleet?results=1", 200, func() any { return new(fleet.FleetInfo) }},
		{"/query?machine=bogus&series=power_w", 404, func() any { return new(telemetry.APIError) }},
	}
	order := slices.Concat(cases, cases)
	slices.Reverse(order[len(cases):])
	for _, c := range order {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.target, nil))
		if rec.Code != c.code {
			t.Fatalf("%s: status %d, want %d: %s", c.target, rec.Code, c.code, rec.Body.Bytes())
		}
		v := c.into()
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("%s: decoding into %T: %v", c.target, v, err)
		}
		want := freshJSON(t, v)
		if got := pooledJSON(v); !bytes.Equal(got, want) {
			t.Errorf("%s: WriteJSON(%T) differs from a fresh encoder:\n%s\nwant\n%s", c.target, v, got, want)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: body differs from a fresh encoding of what it decodes to:\n%s\nwant\n%s", c.target, rec.Body.Bytes(), want)
		}
	}
}

// failingWriter is a response whose connection broke: every write fails.
type failingWriter struct{ header http.Header }

func (w *failingWriter) Header() http.Header { return w.header }
func (*failingWriter) WriteHeader(int)       {}
func (*failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("connection reset by peer")
}

// TestWriteJSONAfterFailedWrite checks that a response whose writes fail
// does not spoil the encoder for the next one. A json.Encoder keeps its
// first write error and returns it from every later Encode, writing
// nothing; the pooled encoders write through a shim that never fails.
func TestWriteJSONAfterFailedWrite(t *testing.T) {
	v := telemetry.APIError{Status: http.StatusNotFound, Error: `unknown machine "m0042"`}
	want := freshJSON(t, v)

	// One encoder, deterministically reused.
	encode := telemetry.PooledEncoder()
	encode(&failingWriter{header: http.Header{}}, v)
	var b bytes.Buffer
	encode(&b, v)
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("after a failed write the encoder wrote\n%q\nwant\n%q", b.Bytes(), want)
	}

	// Through WriteJSON: on one P the pool hands the same encoder back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		telemetry.WriteJSON(&failingWriter{header: http.Header{}}, http.StatusNotFound, v)
		if got := pooledJSON(v); !bytes.Equal(got, want) {
			t.Fatalf("round %d: after a failed response WriteJSON wrote\n%q\nwant\n%q", i, got, want)
		}
	}
}
