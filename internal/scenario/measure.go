package scenario

import (
	"fmt"
	"strings"

	"hetpapi/internal/core"
	"hetpapi/internal/sim"
)

// MeasureSpec attaches a PAPI-style measurement probe (a core.EventSet) to
// one workload of the scenario, so fault scenarios exercise the full
// library stack — presets, multi-PMU grouping and the graceful-degradation
// ladder — under the same per-tick audit as the raw kernel counters.
type MeasureSpec struct {
	// Workload indexes Spec.Workloads; the probe attaches to the
	// workload's first thread.
	Workload int
	// Events are the probe's events: PAPI_* names resolve as presets,
	// anything else as a native event name.
	Events []string
	// Multiplex requests software multiplexing up front (time-scaled
	// reads even before any ENOSPC fallback).
	Multiplex bool
	// StartSec delays the probe's first Start attempt into the run. The
	// probe retries every tick while Start defers (EBUSY), so a start
	// into a counter-steal window succeeds once the counter is released.
	StartSec float64
}

// MeasureState is the probe's live state, exposed on the Context so
// invariants and telemetry hooks can audit every reading as it happens.
type MeasureState struct {
	// Set is the probe EventSet (nil until built).
	Set *core.EventSet
	// Names echoes MeasureSpec.Events.
	Names []string
	// Started reports whether the set is counting.
	Started bool
	// LastValues is the most recent degradation-aware reading. The probe
	// overwrites it in place every tick; a hook that keeps values past
	// its own call must copy them.
	LastValues []core.Value
	// StartErrs counts deferred Start attempts (the probe retries on its
	// own tick schedule instead of backing off inside Start).
	StartErrs int
	// ReadErrs counts failed reads — always zero when the degradation
	// ladder holds, and audited by the reads-monotonic invariant.
	ReadErrs int
}

// measureProbe drives a MeasureSpec over a run.
type measureProbe struct {
	lib   *core.Library
	spec  *MeasureSpec
	state MeasureState
}

// newMeasureProbe initializes the library and builds the probe's EventSet
// eagerly, so a misspelled event name fails the run up front instead of
// silently retrying every tick.
func newMeasureProbe(s *sim.Machine, ms *MeasureSpec, nworkloads int) (*measureProbe, error) {
	if ms.Workload < 0 || ms.Workload >= nworkloads {
		return nil, fmt.Errorf("measure targets workload %d of %d", ms.Workload, nworkloads)
	}
	if len(ms.Events) == 0 {
		return nil, fmt.Errorf("measure has no events")
	}
	lib, err := core.Init(s, core.Options{})
	if err != nil {
		return nil, err
	}
	es := lib.CreateEventSet()
	if ms.Multiplex {
		if err := es.SetMultiplex(); err != nil {
			return nil, err
		}
	}
	for _, name := range ms.Events {
		if strings.HasPrefix(name, "PAPI_") {
			err = es.AddPreset(core.Preset(name))
		} else {
			err = es.AddNamed(name)
		}
		if err != nil {
			return nil, fmt.Errorf("measure event %q: %w", name, err)
		}
	}
	// The probe is a stage of the harness's run loop: Start must never
	// step the machine itself, so in-place EBUSY backoff is disabled and
	// the probe retries across ticks instead.
	es.SetStartRetry(-1)
	return &measureProbe{
		lib:   lib,
		spec:  ms,
		state: MeasureState{Set: es, Names: append([]string(nil), ms.Events...)},
	}, nil
}

// step runs once per tick: attach and start the probe when its time and
// target arrive (retrying deferred starts), then read.
func (mp *measureProbe) step(now float64, target *spawnedWorkload) {
	if now < mp.spec.StartSec || !target.spawned || len(target.procs) == 0 {
		return
	}
	if !mp.state.Started {
		if err := mp.state.Set.Attach(target.procs[0].PID); err != nil {
			mp.state.StartErrs++
			return
		}
		if err := mp.state.Set.Start(); err != nil {
			mp.state.StartErrs++ // deferred (EBUSY); retry next tick
			return
		}
		mp.state.Started = true
	}
	vals, err := mp.state.Set.ReadValuesInto(mp.state.LastValues)
	if err != nil {
		mp.state.ReadErrs++
		return
	}
	mp.state.LastValues = vals
}

// finish stops the probe and returns the final values (nil if the probe
// never started).
func (mp *measureProbe) finish() []core.Value {
	if !mp.state.Started {
		return mp.state.LastValues
	}
	vals, err := mp.state.Set.StopValues()
	if err != nil {
		mp.state.ReadErrs++
		return mp.state.LastValues
	}
	mp.state.LastValues = vals
	return vals
}

func (mp *measureProbe) cleanup() {
	if mp.state.Set != nil {
		_ = mp.state.Set.Cleanup()
	}
}
