package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"hetpapi/internal/stats"
)

// percentile returns the p-th percentile of xs (stats.Percentile's
// linear interpolation) when at least ten samples lie strictly beyond
// its rank, so a tail figure is never read off a handful of samples.
// ok is false when the sample is too small for p.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	rank := p / 100 * float64(len(xs)-1)
	if beyond := len(xs) - 1 - int(math.Ceil(rank)); beyond < 10 {
		return 0, false
	}
	return stats.Percentile(xs, p), true
}

// setPercentile records the p-th percentile of xs as metric name, or 0
// with a note when the sample is too small for it.
func (b *bench) setPercentile(name string, xs []float64, p float64) {
	v, ok := percentile(xs, p)
	if !ok {
		b.note("%s: not reported, %d samples leave fewer than ten beyond p%g", name, len(xs), p)
	}
	b.set(name, v)
}

// bestOf returns, for each unit of work i, its fastest time over the
// repeats: min over r of repeats[r][i], for every i all repeats reached.
// The repeats do the same deterministic work, and other tenants of a
// shared host can only slow a repeat down, so the fastest one is the
// least disturbed reading of each unit.
func bestOf(repeats [][]float64) []float64 {
	if len(repeats) == 0 {
		return nil
	}
	n := len(repeats[0])
	for _, r := range repeats {
		n = min(n, len(r))
	}
	best := append([]float64(nil), repeats[0][:n]...)
	for _, r := range repeats[1:] {
		for i := range best {
			best[i] = min(best[i], r[i])
		}
	}
	return best
}

// Set-up is repeated at least setupReps times and for at least
// setupBudget in one run.
const (
	setupReps   = 101
	setupBudget = time.Second
)

// setups times fn repeatedly and returns the 10th percentile of its
// durations in seconds. Repeated set-up allocates, so some repetitions
// carry a garbage collection and the median moves with where those land;
// the fast decile is the set-up work itself, and setupReps leaves ten
// repetitions below it.
func setups(fn func() error) (float64, error) {
	var durs []float64
	for start := time.Now(); len(durs) < setupReps || time.Since(start) < setupBudget; {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return stats.Percentile(durs, 10), nil
}

// heapSampler tracks the peak of the live-object heap
// (/memory/classes/heap/objects:bytes) while a timed phase runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

// startHeapSampler collects the heap, so set-up garbage stays out of the
// peak, then samples every 2 ms until stopped.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapObjects}}
	read := func() {
		metrics.Read(sample)
		v := sample[0].Value.Uint64()
		h.mu.Lock()
		if v > h.peak {
			h.peak = v
		}
		h.mu.Unlock()
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// stopMB stops the sampler, waits for it to exit, and returns the peak
// in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// allocCounter reads the process-wide cumulative allocation counters.
type allocCounter struct {
	samples []metrics.Sample
}

func newAllocCounter() *allocCounter {
	return &allocCounter{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// read returns the cumulative allocated objects and bytes.
func (a *allocCounter) read() (objects, bytes uint64) {
	metrics.Read(a.samples)
	return a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()
}
