package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"hetpapi/internal/stats"
)

// FleetQueryRequest selects a population-wide aggregate view: one
// downsampled rung (raw is rejected — population queries must never
// touch raw rings), an optional time window, and optional filters on
// core type, event kind, machine-id prefix and fleet template.
type FleetQueryRequest struct {
	Rung     Rung
	FromSec  float64 // negative = open
	ToSec    float64 // negative = open
	Type     string  // filter: core type ("P-core", "machine", "degradation", ...)
	Kind     string  // filter: event kind ("instructions", "power_w", ...)
	Template string  // filter: fleet template tag (via Store.SetMeta)
	Machine  string  // filter: machine-id prefix
	Timeline bool    // include the merged per-bucket timeline per group
}

// FleetGroup is the aggregate of one (core type, event kind) pair across
// every matching machine in the window.
type FleetGroup struct {
	Type     string `json:"type"`
	Kind     string `json:"kind"`
	Machines int    `json:"machines"`
	Series   int    `json:"series"`
	// Buckets is the number of rung buckets merged; Samples the raw
	// samples those buckets ingested.
	Buckets int64 `json:"buckets"`
	Samples int64 `json:"samples"`
	// Merged is the exact merge of every window bucket: total sample
	// mass and the population-wide envelope.
	Merged stats.Bucket `json:"merged"`
	// Mean/Stddev/P50/P95/P99 describe the distribution of per-bucket
	// means — how the signal varies across machines and across time
	// within the window.
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	// LastSum is the sum over member series of their freshest window
	// value — for cumulative counters, the fleet-wide total.
	LastSum float64 `json:"last_sum"`
	// Timeline, when requested, is the bucket-mean time series merged
	// across all member series (one point per distinct bucket start).
	Timeline []Point `json:"timeline,omitempty"`
}

// FleetQueryResponse is the population aggregate over one rung/window.
type FleetQueryResponse struct {
	Rung     string       `json:"rung"`
	FromSec  float64      `json:"from_sec"`
	ToSec    float64      `json:"to_sec"`
	Machines int          `json:"machines"`
	Groups   []FleetGroup `json:"groups"`
}

// FleetQuery aggregates the selected rung across the whole population.
//
// Each machine counts once per group: counter groups fold per-type
// totals (type/<type>/<kind>), never per-CPU counters
// (cpu<N>/<type>/<kind>), which stay reachable through the machine's
// by-type rollup. Machine scalars and degradation tallies fold as they
// are.
//
// It walks the store's inventory in (machine, series) order. Each
// matching series' window buckets are copied out under its shard's read
// lock — bounded by RungCapacity per series, never the raw rings — and
// folded into the group of its (core type, event kind). So every group
// folds its members in (machine, series) order, and the groups come out
// in (type, kind) order: every floating-point accumulation happens in a
// fixed sequence, and the response is byte-identical no matter how many
// goroutines wrote the data.
func (st *Store) FleetQuery(req FleetQueryRequest) (FleetQueryResponse, error) {
	if req.Rung <= RungRaw || req.Rung >= numRungs {
		return FleetQueryResponse{}, fmt.Errorf("fleet query needs a downsampled rung (1s, 10s or 1m), got %q", req.Rung)
	}
	resp := FleetQueryResponse{Rung: req.Rung.String(), FromSec: req.FromSec, ToSec: req.ToSec}
	accs := map[*eventClass]*groupAcc{}
	var buf []RungPoint
	for _, r := range st.machineRows() {
		if req.Machine != "" && !strings.HasPrefix(r.id, req.Machine) {
			continue
		}
		if req.Template != "" && st.Meta(r.id).Template != req.Template {
			continue
		}
		member := false
		for _, e := range r.list() {
			c := e.class
			if c == nil || e.counter || req.Type != "" && c.typeName != req.Type || req.Kind != "" && c.kind != req.Kind {
				continue
			}
			e.sh.mu.RLock()
			buf = e.s.rungs[req.Rung-1].appendWindow(req.FromSec, req.ToSec, buf[:0])
			e.sh.mu.RUnlock()
			if len(buf) == 0 {
				continue
			}
			a := accs[c]
			if a == nil {
				a = &groupAcc{g: FleetGroup{Type: c.typeName, Kind: c.kind}}
				accs[c] = a
			}
			a.add(r.id, buf, req.Timeline)
			member = true
		}
		if member {
			resp.Machines++
		}
	}
	groups := make([]*groupAcc, 0, len(accs))
	for _, a := range accs {
		groups = append(groups, a)
	}
	slices.SortFunc(groups, func(a, b *groupAcc) int {
		if c := strings.Compare(a.g.Type, b.g.Type); c != 0 {
			return c
		}
		return strings.Compare(a.g.Kind, b.g.Kind)
	})
	for _, a := range groups {
		resp.Groups = append(resp.Groups, a.result(req.Timeline))
	}
	return resp, nil
}

// groupAcc folds one FleetGroup's members, in the order they are added.
type groupAcc struct {
	g           FleetGroup
	lastMachine string
	w           stats.Welford
	means       []float64
	timeline    map[float64]*stats.Bucket
	times       []float64
}

// add folds one member series' window buckets. Members arrive in machine
// order, so a new machine id is a new machine of the group.
func (a *groupAcc) add(machine string, buckets []RungPoint, timeline bool) {
	if a.g.Series == 0 || machine != a.lastMachine {
		a.g.Machines++
		a.lastMachine = machine
	}
	a.g.Series++
	for _, bp := range buckets {
		a.g.Buckets++
		a.g.Samples += bp.Agg.N
		a.g.Merged.Merge(bp.Agg)
		m := bp.Agg.Mean()
		a.w.Add(m)
		a.means = append(a.means, m)
		if timeline {
			tb := a.timeline[bp.TimeSec]
			if tb == nil {
				if a.timeline == nil {
					a.timeline = map[float64]*stats.Bucket{}
				}
				tb = &stats.Bucket{}
				a.timeline[bp.TimeSec] = tb
				a.times = append(a.times, bp.TimeSec)
			}
			tb.Merge(bp.Agg)
		}
	}
	a.g.LastSum += buckets[len(buckets)-1].Agg.Last
}

// result finishes the group: the distribution of its bucket means and,
// when asked for, its merged timeline.
func (a *groupAcc) result(timeline bool) FleetGroup {
	g := a.g
	g.Mean = a.w.Mean()
	g.Stddev = a.w.Stddev()
	sort.Float64s(a.means)
	g.P50 = stats.SortedPercentile(a.means, 50)
	g.P95 = stats.SortedPercentile(a.means, 95)
	g.P99 = stats.SortedPercentile(a.means, 99)
	if timeline {
		sort.Float64s(a.times)
		g.Timeline = make([]Point, 0, len(a.times))
		for _, t := range a.times {
			g.Timeline = append(g.Timeline, Point{TimeSec: t, Value: a.timeline[t].Mean()})
		}
	}
	return g
}

// RungSummary merges every window bucket of one series' rung into a
// single aggregate — the per-machine feature the anomaly detector
// scores. The bool reports whether the series exists and had any
// bucket in the window.
func (st *Store) RungSummary(k Key, r Rung, fromSec, toSec float64) (stats.Bucket, bool) {
	pts, ok := st.RungRange(k, r, fromSec, toSec)
	if !ok || len(pts) == 0 {
		return stats.Bucket{}, false
	}
	var b stats.Bucket
	for _, p := range pts {
		b.Merge(p.Agg)
	}
	return b, true
}
