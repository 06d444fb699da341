package core

import (
	"fmt"
	"sort"

	"hetpapi/internal/perfevent"
)

// Sampling support (the PAPI_overflow-style interface): an added event can
// be given a sample period before Start; while the set runs, every native
// expansion of that event emits an overflow record each period. On hybrid
// machines a sampled preset therefore produces a complete profile across
// core types — one sample stream per core PMU, merged by Samples.

// SetSamplePeriod turns the index-th added event (add order, 0-based) into
// a sampling event. It must be called on a stopped set.
func (es *EventSet) SetSamplePeriod(index int, period uint64) error {
	if es.state == stateRunning {
		return ErrIsRunning
	}
	if index < 0 || index >= len(es.entries) {
		return fmt.Errorf("%w: event index %d out of range", ErrInvalid, index)
	}
	if period == 0 {
		return fmt.Errorf("%w: zero sample period", ErrInvalid)
	}
	if period < perfevent.MinSamplePeriod {
		return fmt.Errorf("%w: sample period %d below minimum %d",
			ErrInvalid, period, perfevent.MinSamplePeriod)
	}
	for _, n := range es.entries[index].natives {
		if es.lib.cpuWide(n.PMU) {
			return fmt.Errorf("%w: cannot sample CPU-wide event %s", ErrInvalid, n.FullName)
		}
	}
	es.entries[index].samplePeriod = period
	return nil
}

// Samples drains the overflow records of every sampling native in the set,
// merged in time order, plus the total number of records lost to ring
// overflow. The set must be running or freshly stopped (descriptors still
// open).
func (es *EventSet) Samples() ([]perfevent.Sample, uint64, error) {
	if es.groups == nil {
		return nil, 0, ErrNotRunning
	}
	k := es.lib.sys.Kernel
	var out []perfevent.Sample
	var lostTotal uint64
	for _, e := range es.entries {
		if e.samplePeriod == 0 {
			continue
		}
		for i := range e.natives {
			samples, lost, err := k.ReadSamples(es.slots[e.first+i].fd)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, samples...)
			lostTotal += lost
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TimeSec < out[j].TimeSec })
	return out, lostTotal, nil
}
