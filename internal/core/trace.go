package core

// Span-trace instrumentation for the PAPI-style layer, all on the
// "papi" track:
//
//   - "papi.start" spans covering the whole Start ladder, including
//     simulated ticks burned in EBUSY backoff — the span's duration IS
//     the measurement-setup cost in sim time;
//   - "papi.stop" instants when a running set stops;
//   - "degrade.<kind>" instants for every degradation-ladder action
//     (busy-retry, deferred-start, multiplex-fallback, hotplug-rebuild,
//     stale-serve), carrying the DegradationReport tallies as of that
//     moment so a timeline shows the ladder climbing;
//   - "papi.read.degraded" / "papi.read.clean" instants on transitions
//     of the read-quality state, rather than per read, so a per-tick
//     probe does not flood the ring.
//
// The recorder is reached through the machine (sim.Machine.SetTracer
// attaches the whole stack at once); everything is gated on Enabled().

import (
	"hetpapi/internal/spantrace"
)

// trace returns the enabled recorder and the "papi" track id, or
// (nil, -1). The track id is cached per recorder identity so the
// registry mutex is not taken on every read.
func (l *Library) trace() (*spantrace.Recorder, int) {
	r := l.sys.Tracer()
	if !r.Enabled() {
		return nil, -1
	}
	if r != l.traceRec {
		l.traceRec = r
		l.papiTrk = r.Track("papi")
	}
	return r, l.papiTrk
}

// recordDegradation logs a ladder action in the DegradationReport and
// mirrors it as a trace instant carrying the current tallies.
func (es *EventSet) recordDegradation(at float64, kind, detail string) {
	es.deg.record(at, kind, detail)
	r, trk := es.lib.trace()
	if r == nil {
		return
	}
	rep := &es.deg.report
	r.Instant(trk, "degrade."+kind, "degrade", at,
		spantrace.Int("eventset", es.id),
		spantrace.Str("detail", detail),
		spantrace.Int("busy_retries", rep.BusyRetries),
		spantrace.Int("retry_ticks", rep.RetryTicks),
		spantrace.Int("deferred_starts", rep.DeferredStarts),
		spantrace.Int("multiplex_fallback", rep.MultiplexFallback),
		spantrace.Int("hotplug_rebuilds", rep.HotplugRebuilds),
		spantrace.Int("stale_reads", rep.StaleReads),
		spantrace.Int("degraded_reads", rep.DegradedReads),
		spantrace.Int("monotonic_clamps", rep.MonotonicClamps))
}

// traceStartSpan emits the "papi.start" span for a completed Start
// ladder attempt (success or failure).
func (es *EventSet) traceStartSpan(fromSec float64, err error) {
	r, trk := es.lib.trace()
	if r == nil {
		return
	}
	r.Span(trk, "papi.start", "papi", fromSec, es.lib.sys.Now()-fromSec,
		spantrace.Int("eventset", es.id),
		spantrace.Int("groups", len(es.groups)),
		spantrace.Err(err))
}

// traceStopInstant emits the "papi.stop" instant.
func (es *EventSet) traceStopInstant() {
	r, trk := es.lib.trace()
	if r == nil {
		return
	}
	r.Instant(trk, "papi.stop", "papi", es.lib.sys.Now(),
		spantrace.Int("eventset", es.id),
		spantrace.Int("degraded_reads", es.deg.report.DegradedReads))
}

// traceReadQuality emits an instant when the degradation quality of
// reads flips between clean and degraded. The state update itself is
// unconditional trace bookkeeping; only the emission is gated.
func (es *EventSet) traceReadQuality(degradedNow bool) {
	if degradedNow == es.deg.lastReadDegraded {
		return
	}
	es.deg.lastReadDegraded = degradedNow
	r, trk := es.lib.trace()
	if r == nil {
		return
	}
	name := "papi.read.clean"
	if degradedNow {
		name = "papi.read.degraded"
	}
	r.Instant(trk, name, "papi", es.lib.sys.Now(),
		spantrace.Int("eventset", es.id),
		spantrace.Int("degraded_reads", es.deg.report.DegradedReads),
		spantrace.Int("stale_reads", es.deg.report.StaleReads))
}
