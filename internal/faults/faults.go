// Package faults provides deterministic, seedable fault plans for the
// simulated perf_event substrate. A Plan is an ordered schedule of fault
// transitions — watchdog counter reservations, CPU hotplug, sampling
// ring-buffer pressure, per-PMU counter budgets — that the kernel in
// internal/perfevent consults at every syscall-shaped boundary and on
// every clock advance. The same seed always produces the same schedule
// and, because the simulation itself is deterministic, the same trace of
// applied faults; Trace() exposes that log so tests can assert
// byte-identical behavior across runs.
//
// The fault kinds map one-to-one onto the perf_event failure modes the
// paper's PAPI work has to survive on real hybrid hardware:
//
//   - KindWatchdogHold / KindWatchdogRelease model the NMI watchdog
//     taking (and later releasing) one counter of a core PMU. On PMUs
//     whose fixed-counter inventory includes the cycles counter
//     (hw.PMUSpec.FixedEvents), new cycles events fail to open with
//     EBUSY and already-open groups containing a cycles event are
//     descheduled (their time_running stalls, so reads must scale); on
//     PMUs without a fixed cycles counter the reservation consumes one
//     general-purpose counter, shrinking the schedulable capacity.
//   - KindHotplugOff / KindHotplugOn model CPU hotplug: taking a CPU
//     offline invalidates every CPU-wide event opened on it (reads
//     return ENODEV, like reading a perf fd whose CPU vanished) and new
//     opens on the CPU fail; bringing the CPU back online does NOT
//     revive dead descriptors — callers must reopen, exactly the
//     rebuild dance real tools perform.
//   - KindRingCap caps the per-event sampling ring buffer, forcing
//     overflow records to be dropped and counted as lost (the
//     PERF_RECORD_LOST path).
//   - KindCounterBudget caps the number of simultaneously schedulable
//     counters of one PMU below its physical inventory (counters held
//     by other users of the PMU); groups that no longer fit fail to
//     open with ENOSPC and open events multiplex harder.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"hetpapi/internal/spantrace"
)

// Kind identifies a fault transition.
type Kind string

// The fault transitions a plan can schedule.
const (
	// KindWatchdogHold reserves one counter of PMU (a dynamic perf type)
	// for the NMI watchdog until a matching KindWatchdogRelease.
	KindWatchdogHold Kind = "watchdog-hold"
	// KindWatchdogRelease returns the watchdog's counter on PMU.
	KindWatchdogRelease Kind = "watchdog-release"
	// KindHotplugOff takes CPU offline, invalidating its open events.
	KindHotplugOff Kind = "hotplug-off"
	// KindHotplugOn brings CPU back online (dead fds stay dead).
	KindHotplugOn Kind = "hotplug-on"
	// KindRingCap caps every sampling ring buffer at Cap records
	// (0 restores the default).
	KindRingCap Kind = "ring-cap"
	// KindCounterBudget caps PMU's schedulable counters at Cap
	// (0 restores the physical inventory).
	KindCounterBudget Kind = "counter-budget"
)

// Event is one scheduled fault transition, applied at the first kernel
// clock advance or syscall at or after AtSec.
type Event struct {
	// AtSec is the simulated time of the transition.
	AtSec float64
	// Kind selects the transition.
	Kind Kind
	// PMU is the dynamic perf type targeted by watchdog and budget
	// transitions.
	PMU uint32
	// CPU is the logical CPU targeted by hotplug transitions.
	CPU int
	// Cap parameterizes KindRingCap and KindCounterBudget.
	Cap int
}

// String renders the event in the canonical trace form.
func (e Event) String() string {
	switch e.Kind {
	case KindWatchdogHold, KindWatchdogRelease:
		return fmt.Sprintf("t=%.6f %s pmu=%d", e.AtSec, e.Kind, e.PMU)
	case KindHotplugOff, KindHotplugOn:
		return fmt.Sprintf("t=%.6f %s cpu=%d", e.AtSec, e.Kind, e.CPU)
	case KindCounterBudget:
		return fmt.Sprintf("t=%.6f %s pmu=%d cap=%d", e.AtSec, e.Kind, e.PMU, e.Cap)
	default:
		return fmt.Sprintf("t=%.6f %s cap=%d", e.AtSec, e.Kind, e.Cap)
	}
}

// TraceArgs renders the transition as span-trace annotations for the
// kernel's fault instrumentation: the kind, the scheduled time, and the
// kind-specific target (pmu/cpu/cap).
func (e Event) TraceArgs() []spantrace.Arg {
	args := []spantrace.Arg{
		spantrace.Str("kind", string(e.Kind)),
		spantrace.Num("scheduled_at", e.AtSec),
	}
	switch e.Kind {
	case KindWatchdogHold, KindWatchdogRelease:
		args = append(args, spantrace.Int("pmu", int(e.PMU)))
	case KindHotplugOff, KindHotplugOn:
		args = append(args, spantrace.Int("cpu", e.CPU))
	case KindCounterBudget:
		args = append(args, spantrace.Int("pmu", int(e.PMU)), spantrace.Int("cap", e.Cap))
	default:
		args = append(args, spantrace.Int("cap", e.Cap))
	}
	return args
}

// Plan is a deterministic fault schedule. The zero value is an empty
// plan; kernels treat a nil *Plan as "no faults". A Plan is stateful
// (it remembers which events have been consumed and logs them); use
// Reset before reusing one across runs, or build a fresh plan per run.
type Plan struct {
	events []Event
	next   int
	log    []string
}

// NewPlan builds a plan from the given events, sorted stably by AtSec
// (events at equal times keep their argument order).
func NewPlan(events ...Event) *Plan {
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].AtSec < evs[j].AtSec })
	return &Plan{events: evs}
}

// Profile bounds the random schedule Random generates.
type Profile struct {
	// HorizonSec is the time window faults are scheduled within.
	HorizonSec float64
	// PMUs are the dynamic perf types watchdog/budget faults may target.
	PMUs []uint32
	// CPUs are the logical CPUs hotplug faults may target.
	CPUs []int
	// MaxEvents bounds the schedule length (default 8).
	MaxEvents int
	// MinBudget floors KindCounterBudget caps (default 1), so random
	// plans never make a PMU completely unschedulable unless asked.
	MinBudget int
}

// Random derives a fault schedule deterministically from the seed: the
// same (seed, profile) pair always yields the identical plan. Hold-type
// faults (watchdog, hotplug-off) are paired with their release within
// the horizon so random plans always heal, which keeps long property
// runs from wedging a machine forever.
func Random(seed int64, p Profile) *Plan {
	rng := rand.New(rand.NewSource(seed))
	if p.HorizonSec <= 0 {
		p.HorizonSec = 1
	}
	if p.MaxEvents <= 0 {
		p.MaxEvents = 8
	}
	if p.MinBudget <= 0 {
		p.MinBudget = 1
	}
	var evs []Event
	n := 1 + rng.Intn(p.MaxEvents)
	for i := 0; i < n && len(evs) < p.MaxEvents; i++ {
		at := rng.Float64() * p.HorizonSec * 0.8
		until := at + (0.05+rng.Float64()*0.5)*(p.HorizonSec-at)
		switch pick := rng.Intn(4); {
		case pick == 0 && len(p.PMUs) > 0:
			pmu := p.PMUs[rng.Intn(len(p.PMUs))]
			evs = append(evs,
				Event{AtSec: at, Kind: KindWatchdogHold, PMU: pmu},
				Event{AtSec: until, Kind: KindWatchdogRelease, PMU: pmu})
		case pick == 1 && len(p.CPUs) > 0:
			cpu := p.CPUs[rng.Intn(len(p.CPUs))]
			evs = append(evs,
				Event{AtSec: at, Kind: KindHotplugOff, CPU: cpu},
				Event{AtSec: until, Kind: KindHotplugOn, CPU: cpu})
		case pick == 2 && len(p.PMUs) > 0:
			pmu := p.PMUs[rng.Intn(len(p.PMUs))]
			cap := p.MinBudget + rng.Intn(4)
			evs = append(evs,
				Event{AtSec: at, Kind: KindCounterBudget, PMU: pmu, Cap: cap},
				Event{AtSec: until, Kind: KindCounterBudget, PMU: pmu, Cap: 0})
		default:
			cap := 1 << uint(rng.Intn(10)) // 1..512 records
			evs = append(evs,
				Event{AtSec: at, Kind: KindRingCap, Cap: cap},
				Event{AtSec: until, Kind: KindRingCap, Cap: 0})
		}
	}
	return NewPlan(evs...)
}

// Events returns the full schedule, in application order.
func (p *Plan) Events() []Event {
	return append([]Event(nil), p.events...)
}

// Pending returns the not-yet-applied events due at or before now, in
// schedule order, marking them consumed and appending them to the
// trace. The kernel calls this on every syscall and clock advance.
func (p *Plan) Pending(now float64) []Event {
	if p == nil || p.next >= len(p.events) || p.events[p.next].AtSec > now {
		return nil
	}
	first := p.next
	for p.next < len(p.events) && p.events[p.next].AtSec <= now {
		p.log = append(p.log, p.events[p.next].String())
		p.next++
	}
	return p.events[first:p.next]
}

// Done reports whether every scheduled event has been consumed.
func (p *Plan) Done() bool { return p == nil || p.next >= len(p.events) }

// NextAt returns the trigger time of the earliest not-yet-applied event,
// or +Inf when the plan is exhausted (or nil). Until the clock reaches
// it, the next Pending call returns nothing, which is the precondition
// of the kernel's update sequence (perfevent's FuzzKernelSeq reads it).
func (p *Plan) NextAt() float64 {
	if p == nil || p.next >= len(p.events) {
		return math.Inf(1)
	}
	return p.events[p.next].AtSec
}

// Trace returns the log of applied transitions, one canonical line per
// event, in application order. Two runs of the same plan against the
// same deterministic machine produce byte-identical traces.
func (p *Plan) Trace() []string {
	if p == nil {
		return nil
	}
	return append([]string(nil), p.log...)
}

// TraceString joins the trace with newlines (for digesting).
func (p *Plan) TraceString() string {
	return strings.Join(p.Trace(), "\n")
}

// Reset rewinds the plan for another run, clearing the trace.
func (p *Plan) Reset() {
	p.next = 0
	p.log = nil
}

// Validate checks the schedule is well-formed: times are finite and
// non-negative, kinds are known, and caps are sane.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.events {
		if e.AtSec < 0 || e.AtSec != e.AtSec {
			return fmt.Errorf("faults: event %d has invalid time %v", i, e.AtSec)
		}
		switch e.Kind {
		case KindWatchdogHold, KindWatchdogRelease, KindHotplugOff, KindHotplugOn:
		case KindRingCap, KindCounterBudget:
			if e.Cap < 0 {
				return fmt.Errorf("faults: event %d (%s) has negative cap %d", i, e.Kind, e.Cap)
			}
		default:
			return fmt.Errorf("faults: event %d has unknown kind %q", i, e.Kind)
		}
		if e.CPU < 0 {
			return fmt.Errorf("faults: event %d has negative cpu %d", i, e.CPU)
		}
	}
	return nil
}
