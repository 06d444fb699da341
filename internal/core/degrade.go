package core

// Graceful degradation: the machinery that keeps an EventSet producing
// correct, error-bounded measurements while the perf_event substrate
// misbehaves. The policy ladder, from cheapest to most invasive:
//
//  1. EBUSY at Start (watchdog holds the fixed cycles counter): retry
//     with bounded exponential backoff in simulated tick time. If the
//     retry budget is exhausted (or retries are disabled), Start fails
//     and the caller may re-Start later — a deferred start.
//  2. ENOSPC at Start (PMU counter budget exhausted): fall back to
//     software multiplexing — every native event becomes its own perf
//     group so the kernel can rotate them through the remaining
//     counters — and scale reads by time_enabled/time_running. The
//     fallback is sticky: once a set has learned its events do not fit,
//     it stays multiplexed.
//  3. ENODEV at Read (CPU hotplug killed a CPU-wide descriptor):
//     rebuild the dead group on the lowest online CPU, carrying the
//     last observed value forward so reported counts stay monotonic.
//     If no CPU is available the set serves its last known values,
//     explicitly flagged stale, rather than failing the read.
//  4. Every read is clamped monotonic and reported as a Value carrying
//     raw and scaled counts, an explicit error bound (the extrapolated
//     portion), and staleness/scaling indicators, so callers can tell
//     a measurement degraded by the substrate from a clean one.
//
// Everything the ladder does is tallied in a DegradationReport that the
// telemetry collector exports as counter series.

import (
	"errors"
	"fmt"

	"hetpapi/internal/perfevent"
)

// timeEps is the tolerance for "did this time field advance" checks.
const timeEps = 1e-12

// defaultRetryTicks bounds the EBUSY backoff: the total number of
// simulation ticks Start may burn waiting for the watchdog to let go.
const defaultRetryTicks = 16

// Value is one degradation-aware reading of a user-visible event.
// Final is the number callers should use; the other fields say how much
// to trust it.
type Value struct {
	// Raw is the unscaled count: what the hardware counters actually
	// accumulated (summed over the entry's native expansions).
	Raw uint64
	// Scaled is the time_enabled/time_running extrapolated estimate.
	// Without multiplexing or degradation it equals Raw.
	Scaled uint64
	// Final is the reported value: Scaled when scaling is active, Raw
	// otherwise, clamped to never decrease between reads of one run.
	Final uint64
	// TimeEnabled and TimeRunning are the largest such times over the
	// entry's hardware natives, in seconds.
	TimeEnabled float64
	TimeRunning float64
	// ScaleFactor is TimeEnabled/TimeRunning (>= 1): how far the
	// counter value had to be extrapolated. 1 means fully scheduled.
	ScaleFactor float64
	// ErrorBound is the extrapolated portion of the estimate,
	// Scaled - Raw: the count is known to lie in [Raw, Scaled] up to
	// workload-phase effects.
	ErrorBound uint64
	// Stale marks a value whose counters are no longer advancing while
	// the measurement nominally runs on: the thread migrated off every
	// core type this entry can count on, the backing CPU was
	// hotplugged away without a rebuild target, or the set was already
	// stopped when the read was served.
	Stale bool
	// Degraded marks values produced while any rung of the degradation
	// ladder is active for this set.
	Degraded bool
}

// DegradationEvent is one logged degradation action.
type DegradationEvent struct {
	// AtSec is the simulated time of the action.
	AtSec float64
	// Kind names the rung: "busy-retry", "multiplex-fallback",
	// "hotplug-rebuild", "stale-serve", "deferred-start".
	Kind string
	// Detail is a human-readable description.
	Detail string
}

// DegradationReport tallies every degradation an EventSet performed.
// The zero value means the set has run entirely undegraded.
type DegradationReport struct {
	// BusyRetries counts EBUSY-triggered Start retries.
	BusyRetries int
	// RetryTicks counts simulation ticks burned in EBUSY backoff.
	RetryTicks int
	// DeferredStarts counts Starts that gave up on EBUSY (retry budget
	// exhausted or retries disabled) and returned to the caller.
	DeferredStarts int
	// MultiplexFallback counts ENOSPC-triggered falls into software
	// multiplexing (at most 1: the fallback is sticky).
	MultiplexFallback int
	// HotplugRebuilds counts dead groups rebuilt on another CPU.
	HotplugRebuilds int
	// StaleReads counts reads that served stale values.
	StaleReads int
	// DegradedReads counts reads answered while degraded.
	DegradedReads int
	// MonotonicClamps counts per-entry values clamped to keep reads
	// monotonic.
	MonotonicClamps int
	// Events logs each action in order.
	Events []DegradationEvent
}

// degrade is the per-EventSet degradation state. The per-native part
// (carries, count snapshots, stale marks) lives in EventSet.slots.
type degrade struct {
	report DegradationReport
	// fallbackMux records the sticky ENOSPC fallback.
	fallbackMux bool
	// retryTicks is the EBUSY backoff budget: 0 selects
	// defaultRetryTicks, negative disables in-place retry.
	retryTicks int
	// lastFinal is the monotonic floor per entry.
	lastFinal []uint64
	// lastValues is the most recent successful result, served (flagged
	// stale) when the substrate cannot answer.
	lastValues []Value
	// lastReadDegraded is trace-only bookkeeping: the degradation
	// quality of the previous read, so quality *transitions* emit
	// instants instead of every read.
	lastReadDegraded bool
}

func (d *degrade) record(at float64, kind, detail string) {
	d.report.Events = append(d.report.Events, DegradationEvent{AtSec: at, Kind: kind, Detail: detail})
}

// SetStartRetry adjusts the EBUSY backoff budget: Start may burn up to
// ticks simulation ticks waiting for a reserved counter. ticks < 0
// disables in-place retry — Start returns perfevent.ErrBusy immediately
// (recorded as a deferred start) and the caller retries on its own
// schedule, which is what per-tick drivers like the scenario harness
// want instead of recursing into the simulation loop.
func (es *EventSet) SetStartRetry(ticks int) { es.deg.retryTicks = ticks }

// Degradations returns a copy of the set's degradation report.
func (es *EventSet) Degradations() DegradationReport {
	r := es.deg.report
	r.Events = append([]DegradationEvent(nil), es.deg.report.Events...)
	return r
}

// Degraded reports whether any rung of the degradation ladder is
// active for this set.
func (es *EventSet) Degraded() bool {
	return es.deg.fallbackMux || es.deg.report.HotplugRebuilds > 0
}

// muxActive reports whether reads must be time-scaled: the user asked
// for multiplexing, or ENOSPC forced the fallback.
func (es *EventSet) muxActive() bool { return es.multiplex || es.deg.fallbackMux }

// Start opens the perf events and begins counting (PAPI_start),
// climbing the degradation ladder when the substrate pushes back: EBUSY
// is retried with bounded exponential backoff in simulated tick time,
// and ENOSPC triggers the sticky software-multiplexing fallback. Errors
// that survive the ladder (including EBUSY past the retry budget) are
// returned; a failed Start leaves the set stopped and restartable.
func (es *EventSet) Start() error {
	from := es.lib.sys.Now()
	err := es.startLadder()
	es.traceStartSpan(from, err)
	return err
}

// startLadder is the Start retry/fallback loop (see Start).
func (es *EventSet) startLadder() error {
	wait, spent := 1, 0
	for {
		err := es.startOnce()
		switch {
		case err == nil:
			es.resetRunState()
			return nil
		case errors.Is(err, perfevent.ErrNoSpace) && !es.muxActive():
			es.deg.fallbackMux = true
			es.deg.report.MultiplexFallback++
			es.recordDegradation(es.lib.sys.Now(), "multiplex-fallback",
				fmt.Sprintf("ENOSPC opening eventset %d: splitting into per-event groups", es.id))
		case errors.Is(err, perfevent.ErrBusy):
			budget := es.deg.retryTicks
			if budget == 0 {
				budget = defaultRetryTicks
			}
			if budget < 0 || spent+wait > budget {
				es.deg.report.DeferredStarts++
				es.recordDegradation(es.lib.sys.Now(), "deferred-start",
					fmt.Sprintf("EBUSY after %d backoff ticks: deferring start of eventset %d", spent, es.id))
				return err
			}
			es.deg.report.BusyRetries++
			es.deg.report.RetryTicks += wait
			es.recordDegradation(es.lib.sys.Now(), "busy-retry",
				fmt.Sprintf("EBUSY opening eventset %d: backing off %d ticks", es.id, wait))
			for i := 0; i < wait; i++ {
				es.lib.sys.Step()
			}
			spent += wait
			wait *= 2
		default:
			return err
		}
	}
}

// resetRunState clears the per-run read state after a successful Start:
// fresh descriptors start counting from zero, so monotonic floors from
// the previous run no longer apply. (startOnce built fresh slots, so the
// per-native snapshots are already clear.)
func (es *EventSet) resetRunState() {
	es.deg.lastFinal = make([]uint64, len(es.entries))
}

// ReadValues returns degradation-aware readings in add order. While the
// set runs it reads the substrate (rebuilding hotplug-killed groups as
// needed); on a stopped set it serves the final values of the last run,
// explicitly flagged stale, instead of failing — the read-after-stop
// behavior that used to silently return unflagged pre-migration counts.
// The result is a new slice; ReadValuesInto reuses the caller's.
func (es *EventSet) ReadValues() ([]Value, error) { return es.ReadValuesInto(nil) }

// ReadValuesInto is ReadValues into caller scratch: it overwrites dst from
// index 0 and returns it, allocating only when dst has less capacity than
// the set has events. On error it returns nil and leaves dst untouched.
func (es *EventSet) ReadValuesInto(dst []Value) ([]Value, error) {
	if es.state != stateRunning {
		if es.deg.lastValues == nil {
			return nil, ErrNotRunning
		}
		return es.serveStale(dst, "read of stopped eventset"), nil
	}
	return es.collectValues(dst)
}

// StopValues stops counting and returns the final degradation-aware
// values (the Value-typed sibling of Stop). Disable errors from
// descriptors already killed by hotplug are ignored: the counters are
// as stopped as they will ever be.
func (es *EventSet) StopValues() ([]Value, error) {
	if es.state != stateRunning {
		return nil, ErrNotRunning
	}
	vals, err := es.collectValues(nil)
	if err != nil {
		return nil, err
	}
	k := es.lib.sys.Kernel
	for _, g := range es.groups {
		if err := k.Disable(es.leaderFD(g)); err != nil && !errors.Is(err, perfevent.ErrNoSuchDevice) {
			return nil, err
		}
	}
	es.state = stateStopped
	for _, key := range es.componentKeys() {
		if es.lib.active[key] == es {
			delete(es.lib.active, key)
		}
	}
	es.traceStopInstant()
	return vals, nil
}

// collectValues reads every group and assembles Values into dst,
// rebuilding dead groups (at most twice) and falling back to flagged
// stale service when the substrate cannot answer at all.
func (es *EventSet) collectValues(dst []Value) ([]Value, error) {
	for attempt := 0; ; attempt++ {
		err := es.readAll()
		if err == nil {
			return es.buildValues(dst), nil
		}
		if !errors.Is(err, perfevent.ErrNoSuchDevice) || attempt >= 2 {
			return nil, err
		}
		if !es.rebuildDead() {
			if es.deg.lastValues == nil {
				return nil, err
			}
			return es.serveStale(dst, "no online CPU to rebuild on"), nil
		}
	}
}

// serveStale returns, in dst, the last known values flagged stale and
// degraded.
func (es *EventSet) serveStale(dst []Value, why string) []Value {
	es.deg.report.StaleReads++
	es.deg.report.DegradedReads++
	es.recordDegradation(es.lib.sys.Now(), "stale-serve", why)
	out := append(dst[:0], es.deg.lastValues...)
	for i := range out {
		out[i].Stale = true
		out[i].Degraded = true
	}
	return out
}

// rebuildDead reopens every hotplug-killed group on the lowest online
// CPU, carrying the last observed counts forward. Only CPU-wide groups
// can die (per-task events follow their thread), and those are opened
// as singleton leaders, but the walk handles full groups anyway: a group
// is rebuilt whole or not at all. Returns false if nothing could be
// rebuilt.
func (es *EventSet) rebuildDead() bool {
	k := es.lib.sys.Kernel
	online := k.OnlineCPUs()
	rebuilt := false
	for _, g := range es.groups {
		leader := es.leaderFD(g)
		got, err := k.ReadGroupInto(leader, es.counts)
		es.counts = got
		if !errors.Is(err, perfevent.ErrNoSuchDevice) {
			continue
		}
		if len(online) == 0 {
			return rebuilt
		}
		newCPU := online[0]
		newFDs := make([]int, 0, len(g.slots))
		for _, si := range g.slots {
			e := &es.entries[es.slots[si].entry]
			attr := e.natives[si-e.first].Attr
			attr.Disabled = true
			attr.SamplePeriod = e.samplePeriod
			groupFD := -1
			if len(newFDs) > 0 {
				groupFD = newFDs[0]
			}
			nfd, err := k.Open(attr, -1, newCPU, groupFD)
			if err != nil {
				break
			}
			newFDs = append(newFDs, nfd)
		}
		if len(newFDs) < len(g.slots) {
			// The dead group stays in place and reads ENODEV until a
			// later rebuild succeeds.
			for i := len(newFDs) - 1; i >= 0; i-- {
				k.Close(newFDs[i])
			}
			continue
		}
		for i, si := range g.slots {
			sl := &es.slots[si]
			k.Close(sl.fd) // dead descriptors still close cleanly
			sl.fd = newFDs[i]
			sl.carry += float64(sl.lastValue)
			sl.lastValue = 0
			sl.lastTimes, sl.seen = perfevent.Count{}, true
			sl.stale = false
		}
		if err := k.Enable(newFDs[0]); err != nil {
			continue
		}
		es.deg.report.HotplugRebuilds++
		es.recordDegradation(es.lib.sys.Now(), "hotplug-rebuild",
			fmt.Sprintf("group fd %d died with its CPU: rebuilt on cpu%d as fd %d", leader, newCPU, newFDs[0]))
		rebuilt = true
	}
	return rebuilt
}

// buildValues assembles per-entry Values from the slots' fresh counts
// into dst and updates the read snapshots.
func (es *EventSet) buildValues(dst []Value) []Value {
	scaling := es.muxActive()
	degraded := es.Degraded()
	anyStale, anyClamp := false, false
	out := dst[:0]
	if cap(out) < len(es.entries) {
		out = make([]Value, 0, len(es.entries))
	}
	for idx := range es.entries {
		e := &es.entries[idx]
		rawSum, scaledSum := es.sums(e, scaling)
		var maxEn, maxRun float64
		hwNatives, staleNatives := 0, 0
		for i := range e.natives {
			sl := &es.slots[e.first+i]
			c := sl.count
			if sl.hw {
				hwNatives++
				switch {
				case sl.seen && c.TimeRunning > sl.lastTimes.TimeRunning+timeEps:
					sl.stale = false // ran again: freshness restored
				case sl.seen && c.TimeEnabled > sl.lastTimes.TimeEnabled+timeEps:
					sl.stale = true // enabled but frozen
				case !sl.seen && c.TimeEnabled > timeEps && c.TimeRunning <= timeEps:
					sl.stale = true
				}
				if sl.stale {
					staleNatives++
				}
				if c.TimeEnabled > maxEn {
					maxEn = c.TimeEnabled
				}
				if c.TimeRunning > maxRun {
					maxRun = c.TimeRunning
				}
			}
		}
		if rawSum < 0 {
			rawSum = 0 // derived subtraction can transiently undershoot
		}
		if scaledSum < rawSum {
			scaledSum = rawSum
		}
		chosen := rawSum
		if scaling {
			chosen = scaledSum
		}
		final := uint64(chosen)
		if final < es.deg.lastFinal[idx] {
			final = es.deg.lastFinal[idx]
			es.deg.report.MonotonicClamps++
			anyClamp = true
		}
		es.deg.lastFinal[idx] = final
		sf := 1.0
		if maxRun > timeEps && maxEn > maxRun {
			sf = maxEn / maxRun
		}
		stale := hwNatives > 0 && staleNatives == hwNatives
		if stale {
			anyStale = true
		}
		out = append(out, Value{
			Raw:         uint64(rawSum),
			Scaled:      uint64(scaledSum),
			Final:       final,
			TimeEnabled: maxEn,
			TimeRunning: maxRun,
			ScaleFactor: sf,
			ErrorBound:  uint64(scaledSum) - uint64(rawSum),
			Stale:       stale,
			Degraded:    degraded || stale,
		})
	}
	for i := range es.slots {
		sl := &es.slots[i]
		sl.lastValue = sl.count.Value
		sl.lastTimes, sl.seen = sl.count, true
	}
	if anyStale {
		es.deg.report.StaleReads++
	}
	if degraded || anyStale || anyClamp {
		es.deg.report.DegradedReads++
	}
	es.traceReadQuality(degraded || anyStale || anyClamp)
	es.deg.lastValues = append(es.deg.lastValues[:0], out...)
	return out
}

// isHWNative reports whether a native's PMU counts on hardware core
// counters — the ones that can stall under migration, multiplexing or
// watchdog reservations. Software, RAPL and uncore natives accrue
// running time whenever enabled.
func (es *EventSet) isHWNative(pmuName string) bool {
	return pmuName != "perf" && pmuName != "rapl" && es.lib.componentOf(pmuName) == "cpu"
}
