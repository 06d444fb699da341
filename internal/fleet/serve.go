package fleet

import (
	"net/http"
	"sync"

	"hetpapi/internal/telemetry"
)

// Monitor publishes fleet-run state over HTTP: the latest roll-up
// report, the in-flight flag, and (when the run streamed) the
// pipeline's self-overhead snapshot. Mount it onto a telemetry server
// with Register; the dependency points fleet → telemetry, so the
// telemetry package stays a pure store/serving layer.
type Monitor struct {
	mu       sync.RWMutex
	report   *Report
	running  bool
	overhead *telemetry.SelfOverhead
}

// NewMonitor builds an empty monitor (/fleet serves 404 until the
// first SetReport).
func NewMonitor() *Monitor { return &Monitor{} }

// Register mounts the monitor's /fleet endpoint onto the server. Call
// before the server's Handler.
func (m *Monitor) Register(s *telemetry.Server) {
	s.Mount("/fleet", http.HandlerFunc(m.HandleFleet))
}

// SetReport publishes a fleet roll-up for /fleet to serve, replacing
// any previous one. overhead carries the run's streaming self-overhead
// snapshot (nil when the run didn't stream); it rides alongside the
// report rather than inside it because it is wall-clock data and the
// report must stay byte-identical across worker counts.
func (m *Monitor) SetReport(r *Report, overhead *telemetry.SelfOverhead) {
	m.mu.Lock()
	m.report = r
	m.overhead = overhead
	m.mu.Unlock()
}

// SetRunning flips the in-flight flag /fleet reports alongside the
// latest roll-up.
func (m *Monitor) SetRunning(running bool) {
	m.mu.Lock()
	m.running = running
	m.mu.Unlock()
}

// FleetInfo is the /fleet response body: the latest fleet roll-up plus
// the in-flight flag and, for streamed runs, the pipeline's measured
// self-overhead.
type FleetInfo struct {
	Running      bool                    `json:"running"`
	Report       *Report                 `json:"report"`
	SelfOverhead *telemetry.SelfOverhead `json:"self_overhead,omitempty"`
}

// HandleFleet serves the latest fleet roll-up report. The per-machine
// results array is omitted unless results=1 is passed; the roll-up
// aggregates, incident ledger, anomalies and digest are always
// included. 404 until the first fleet run has completed (the running
// flag in the error-free path tells pollers one is underway).
func (m *Monitor) HandleFleet(w http.ResponseWriter, r *http.Request) {
	m.mu.RLock()
	rep, running, overhead := m.report, m.running, m.overhead
	m.mu.RUnlock()
	if rep == nil {
		if running {
			telemetry.WriteJSON(w, http.StatusOK, FleetInfo{Running: true})
			return
		}
		telemetry.WriteAPIError(w, http.StatusNotFound, "no fleet report (daemon running without -fleet, or first run still pending)")
		return
	}
	q := r.URL.Query().Get("results")
	if q != "1" && q != "true" {
		rep = rep.Compact()
	}
	telemetry.WriteJSON(w, http.StatusOK, FleetInfo{Running: running, Report: rep, SelfOverhead: overhead})
}
