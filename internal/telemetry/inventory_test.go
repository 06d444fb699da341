package telemetry

// Tests for the series inventory. It must stay equal to a scan of the
// shard maps while series are created concurrently with reads, and
// FleetQuery, which walks it, must answer byte for byte what the former
// scan-and-sort implementation answered. Both former implementations
// are kept below as the references.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hetpapi/internal/stats"
)

// scanKeys is the former Keys: every shard map scanned under its read
// lock, then sorted by machine and series name.
func scanKeys(st *Store) []Key {
	var out []Key
	for _, sh := range st.shards {
		sh.mu.RLock()
		for k := range sh.series {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Machine != out[j].Machine {
			return out[i].Machine < out[j].Machine
		}
		return out[i].Series < out[j].Series
	})
	return out
}

// splitCounterSeries and splitEventSeries are the former,
// strings.Split-based series name parsers.
func splitCounterSeries(name string) (cpu, typeName, kind string, ok bool) {
	parts := strings.Split(name, "/")
	if len(parts) != 3 || !strings.HasPrefix(parts[0], "cpu") {
		return "", "", "", false
	}
	return strings.TrimPrefix(parts[0], "cpu"), parts[1], parts[2], true
}

func splitEventSeries(name string) (typeName, kind string, ok bool) {
	if _, tn, kd, isCounter := splitCounterSeries(name); isCounter {
		return tn, kd, true
	}
	if rest, isType := strings.CutPrefix(name, "type/"); isType {
		if i := strings.IndexByte(rest, '/'); i > 0 && i < len(rest)-1 {
			return rest[:i], rest[i+1:], true
		}
		return "", "", false
	}
	switch name {
	case "power_w", "energy_j", "temp_c", "wall_w":
		return "machine", name, true
	}
	if counter, isDegr := strings.CutPrefix(name, "degradation/"); isDegr {
		return "degradation", counter, true
	}
	return "", "", false
}

// sortFleetQuery is the former FleetQuery: copy the window buckets of
// every matching series out of the shard maps, sort the contributions by
// (type, kind, machine, series) and fold them in that order. Like
// FleetQuery, it leaves per-CPU counters out of the population view.
func sortFleetQuery(st *Store, req FleetQueryRequest) (FleetQueryResponse, error) {
	if req.Rung <= RungRaw || req.Rung >= numRungs {
		return FleetQueryResponse{}, fmt.Errorf("fleet query needs a downsampled rung (1s, 10s or 1m), got %q", req.Rung)
	}
	type seriesWindow struct {
		key      Key
		typeName string
		kind     string
		buckets  []RungPoint
	}
	var wins []seriesWindow
	for _, sh := range st.shards {
		sh.mu.RLock()
		for k, s := range sh.series {
			typeName, kind, ok := splitEventSeries(k.Series)
			if _, _, _, perCPU := splitCounterSeries(k.Series); !ok || perCPU {
				continue
			}
			if req.Type != "" && typeName != req.Type {
				continue
			}
			if req.Kind != "" && kind != req.Kind {
				continue
			}
			if req.Machine != "" && !strings.HasPrefix(k.Machine, req.Machine) {
				continue
			}
			buckets := s.rungs[req.Rung-1].appendWindow(req.FromSec, req.ToSec, nil)
			if len(buckets) == 0 {
				continue
			}
			wins = append(wins, seriesWindow{key: k, typeName: typeName, kind: kind, buckets: buckets})
		}
		sh.mu.RUnlock()
	}
	if req.Template != "" {
		filtered := wins[:0]
		for _, w := range wins {
			if st.Meta(w.key.Machine).Template == req.Template {
				filtered = append(filtered, w)
			}
		}
		wins = filtered
	}
	sort.Slice(wins, func(i, j int) bool {
		a, b := wins[i], wins[j]
		if a.typeName != b.typeName {
			return a.typeName < b.typeName
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.key.Machine != b.key.Machine {
			return a.key.Machine < b.key.Machine
		}
		return a.key.Series < b.key.Series
	})

	resp := FleetQueryResponse{Rung: req.Rung.String(), FromSec: req.FromSec, ToSec: req.ToSec}
	allMachines := map[string]bool{}
	for i := 0; i < len(wins); {
		j := i
		for j < len(wins) && wins[j].typeName == wins[i].typeName && wins[j].kind == wins[i].kind {
			j++
		}
		g := FleetGroup{Type: wins[i].typeName, Kind: wins[i].kind}
		var w stats.Welford
		var means []float64
		machines := map[string]bool{}
		timeline := map[float64]*stats.Bucket{}
		var times []float64
		for _, sw := range wins[i:j] {
			g.Series++
			machines[sw.key.Machine] = true
			allMachines[sw.key.Machine] = true
			for _, bp := range sw.buckets {
				g.Buckets++
				g.Samples += bp.Agg.N
				g.Merged.Merge(bp.Agg)
				m := bp.Agg.Mean()
				w.Add(m)
				means = append(means, m)
				if req.Timeline {
					tb := timeline[bp.TimeSec]
					if tb == nil {
						tb = &stats.Bucket{}
						timeline[bp.TimeSec] = tb
						times = append(times, bp.TimeSec)
					}
					tb.Merge(bp.Agg)
				}
			}
			g.LastSum += sw.buckets[len(sw.buckets)-1].Agg.Last
		}
		g.Machines = len(machines)
		g.Mean = w.Mean()
		g.Stddev = w.Stddev()
		g.P50 = stats.Percentile(means, 50)
		g.P95 = stats.Percentile(means, 95)
		g.P99 = stats.Percentile(means, 99)
		if req.Timeline {
			sort.Float64s(times)
			g.Timeline = make([]Point, 0, len(times))
			for _, t := range times {
				g.Timeline = append(g.Timeline, Point{TimeSec: t, Value: timeline[t].Mean()})
			}
		}
		resp.Groups = append(resp.Groups, g)
		i = j
	}
	resp.Machines = len(allMachines)
	return resp, nil
}

func TestParseSeriesMatchesSplit(t *testing.T) {
	names := []string{
		"", "/", "//", "///", "cpu", "cpu/", "cpu//", "cpu0/P-core/cycles", "cpu/P/x",
		"cpu0//x", "cpu0/a/", "cpu0/a/b/c", "cpux/a/b", "xcpu0/a/b", "type/a/b", "type//b",
		"type/a/", "type/a/b/c", "type/", "power_w", "energy_j", "temp_c", "wall_w",
		"degradation/", "degradation/x", "degradation/x/y", "measure/PAPI_TOT_CYC/final",
		"cpu3_mhz", "selfoverhead/points",
	}
	rng := rand.New(rand.NewSource(1))
	const alphabet = "cpu0/tye_-"
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(14))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		names = append(names, string(b))
	}
	for _, name := range names {
		c1, t1, k1, ok1 := parseCounterSeries(name)
		c2, t2, k2, ok2 := splitCounterSeries(name)
		if c1 != c2 || t1 != t2 || k1 != k2 || ok1 != ok2 {
			t.Fatalf("parseCounterSeries(%q) = %q %q %q %v, want %q %q %q %v", name, c1, t1, k1, ok1, c2, t2, k2, ok2)
		}
		et1, ek1, eok1 := parseEventSeries(name)
		et2, ek2, eok2 := splitEventSeries(name)
		if et1 != et2 || ek1 != ek2 || eok1 != eok2 {
			t.Fatalf("parseEventSeries(%q) = %q %q %v, want %q %q %v", name, et1, ek1, eok1, et2, ek2, eok2)
		}
	}
}

// checkInventory fails unless the inventory equals a scan of the shard
// maps: keys, machines, per-machine series, count, and each entry's
// series pointer and classification.
func checkInventory(t *testing.T, st *Store) {
	t.Helper()
	want := scanKeys(st)
	if got := st.Keys(); !slices.Equal(got, want) {
		t.Fatalf("Keys = %v\nscan = %v", got, want)
	}
	if st.NumSeries() != len(want) {
		t.Fatalf("NumSeries = %d, scan has %d", st.NumSeries(), len(want))
	}
	var machines []string
	bySeries := map[string][]string{}
	for _, k := range want {
		if len(machines) == 0 || machines[len(machines)-1] != k.Machine {
			machines = append(machines, k.Machine)
		}
		bySeries[k.Machine] = append(bySeries[k.Machine], k.Series)
	}
	if got := st.Machines(); !slices.Equal(got, machines) {
		t.Fatalf("Machines = %v, scan has %v", got, machines)
	}
	for _, m := range machines {
		if got := st.SeriesOf(m); !slices.Equal(got, bySeries[m]) {
			t.Fatalf("SeriesOf(%q) = %v, scan has %v", m, got, bySeries[m])
		}
		for _, e := range st.row(m).list() {
			k := Key{m, e.name}
			sh := st.shardOf(k)
			sh.mu.RLock()
			s := sh.series[k]
			sh.mu.RUnlock()
			if e.s != s || e.sh != sh {
				t.Fatalf("%v: inventory entry does not point at the stored series", k)
			}
			typeName, kind, ok := splitEventSeries(e.name)
			if ok != (e.class != nil) || ok && (e.class.typeName != typeName || e.class.kind != kind) {
				t.Fatalf("%v: cached class %+v, want %q %q %v", k, e.class, typeName, kind, ok)
			}
			if _, _, _, counter := splitCounterSeries(e.name); counter != e.counter {
				t.Fatalf("%v: cached counter flag %v, want %v", k, e.counter, counter)
			}
		}
	}
	if st.row("no-such-machine") != nil || st.SeriesOf("no-such-machine") != nil {
		t.Fatal("an absent machine is in the inventory")
	}
}

// TestInventoryConcurrentCreateAndRead creates series from several
// writers while readers call every inventory read. Readers check what
// must hold at any instant; once the writers stop, the inventory must
// equal a scan of the shard maps. A lock-order deadlock between Append
// and a reader fails the test at its deadline instead of hanging it.
func TestInventoryConcurrentCreateAndRead(t *testing.T) {
	st := NewStore(Config{Capacity: 16, Shards: 4, RungCapacity: 16})
	const writers, machines = 4, 24
	names := []string{
		"power_w", "temp_c", "energy_j", "wall_w", "cpu0_mhz",
		TypeSeriesName("P-core", "instructions"), TypeSeriesName("E-core", "cycles"),
		CounterSeriesName(0, "P-core", "instructions"), CounterSeriesName(1, "P-core", "instructions"),
		CounterSeriesName(2, "E-core", "instructions"), CounterSeriesName(11, "E-core", "instructions"),
		DegradationSeriesName("busy_retries"), MeasureSeriesName("PAPI_TOT_CYC", "final"),
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Every writer creates every key, in its own order, so the
			// same new series is raced for by several writers.
			keys := make([]Key, 0, machines*len(names))
			for m := 0; m < machines; m++ {
				for _, n := range names {
					keys = append(keys, Key{fmt.Sprintf("m%04d", m), n})
				}
			}
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			for i, k := range keys {
				st.Append(k, float64(i)/10, float64(i%17))
			}
		}(w)
	}
	stop := make(chan struct{})
	errs := make(chan error, writers)
	var readers sync.WaitGroup
	for r := 0; r < writers; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			fail := func(format string, args ...any) { errs <- fmt.Errorf(format, args...) }
			for {
				select {
				case <-stop:
					return
				default:
				}
				n0 := st.NumSeries()
				keys := st.Keys()
				if len(keys) < n0 {
					fail("Keys has %d entries after NumSeries reported %d", len(keys), n0)
					return
				}
				for i := 1; i < len(keys); i++ {
					a, b := keys[i-1], keys[i]
					if a.Machine > b.Machine || a.Machine == b.Machine && a.Series >= b.Series {
						fail("Keys out of order: %v before %v", a, b)
						return
					}
				}
				for _, k := range keys {
					if _, ok := st.Aggregate(k); !ok {
						fail("Keys lists %v, which the shards do not hold", k)
						return
					}
				}
				ms := st.Machines()
				if !slices.IsSorted(ms) {
					fail("Machines out of order: %v", ms)
					return
				}
				for _, m := range ms {
					if ss := st.SeriesOf(m); len(ss) == 0 || !slices.IsSorted(ss) {
						fail("SeriesOf(%q) = %v", m, ss)
						return
					}
					st.TypeAggregates(m, "instructions")
				}
				if _, err := st.FleetQuery(FleetQueryRequest{Rung: Rung1s, FromSec: -1, ToSec: -1, Timeline: true}); err != nil {
					fail("FleetQuery: %v", err)
					return
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(stop)
		readers.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("writers and readers did not finish: lock-order deadlock between Append and the inventory readers?")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkInventory(t, st)
	if n := st.NumSeries(); n != machines*len(names) {
		t.Fatalf("NumSeries = %d, want %d", n, machines*len(names))
	}
}

// randomFleetStore builds a store of random machines, templates, series
// and samples from a seed, feeding the series in a random interleaving.
func randomFleetStore(seed int64) *Store {
	rng := rand.New(rand.NewSource(seed))
	st := NewStore(Config{Shards: 1 + rng.Intn(8), RungCapacity: 4 + rng.Intn(60)})
	pool := []string{
		"power_w", "energy_j", "temp_c", "wall_w", "cpu3_mhz",
		TypeSeriesName("P-core", "instructions"), TypeSeriesName("E-core", "instructions"),
		TypeSeriesName("E-core", "cycles"), DegradationSeriesName("busy_retries"),
		DegradationSeriesName("mux_fallbacks"), MeasureSeriesName("PAPI_TOT_CYC", "final"),
		"selfoverhead/points",
	}
	for cpu := 0; cpu < 12; cpu++ {
		pool = append(pool, CounterSeriesName(cpu, []string{"P-core", "E-core"}[cpu%2], "cycles"))
	}
	type feed struct {
		k    Key
		t, v float64
		left int
	}
	var feeds []*feed
	for m := 0; m < 3+rng.Intn(10); m++ {
		machine := fmt.Sprintf("%s%03d", []string{"m", "n", "mx"}[rng.Intn(3)], m)
		if tpl := rng.Intn(4); tpl < 3 {
			st.SetMeta(machine, MachineMeta{Template: []string{"small", "big", "gpu"}[tpl]})
		}
		for _, name := range pool {
			if rng.Intn(3) == 0 {
				continue
			}
			feeds = append(feeds, &feed{k: Key{machine, name}, t: rng.Float64() * 20, left: 1 + rng.Intn(80)})
		}
	}
	for len(feeds) > 0 {
		i := rng.Intn(len(feeds))
		f := feeds[i]
		st.Append(f.k, f.t, (rng.Float64()-0.3)*math.Pow(10, float64(rng.Intn(12))))
		f.t += 0.05 + rng.Float64()*3
		if f.left--; f.left == 0 {
			feeds = append(feeds[:i], feeds[i+1:]...)
		}
	}
	return st
}

// TestFleetQueryMatchesSortReference compares FleetQuery's JSON with the
// former scan-and-sort implementation's, byte for byte, on seeded random
// stores under every filter: type, kind, template, machine prefix,
// window bounds and timeline, on each downsampled rung.
func TestFleetQueryMatchesSortReference(t *testing.T) {
	windows := [][2]float64{{-1, -1}, {0, 40}, {10, -1}, {-1, 5}, {5, 5}}
	for seed := int64(1); seed <= 4; seed++ {
		st := randomFleetStore(seed)
		checkInventory(t, st)
		queries := 0
		for _, rung := range []Rung{Rung1s, Rung10s, Rung1m} {
			for _, typ := range []string{"", "P-core", "machine", "degradation"} {
				for _, kind := range []string{"", "cycles", "power_w"} {
					for _, tpl := range []string{"", "small"} {
						for _, prefix := range []string{"", "m", "n00"} {
							for _, win := range windows {
								for _, tl := range []bool{false, true} {
									req := FleetQueryRequest{Rung: rung, FromSec: win[0], ToSec: win[1],
										Type: typ, Kind: kind, Template: tpl, Machine: prefix, Timeline: tl}
									got, err := st.FleetQuery(req)
									if err != nil {
										t.Fatal(err)
									}
									want, _ := sortFleetQuery(st, req)
									gb, _ := json.Marshal(got)
									wb, _ := json.Marshal(want)
									if string(gb) != string(wb) {
										t.Fatalf("seed %d %+v:\n got %s\nwant %s", seed, req, gb, wb)
									}
									if len(want.Groups) > 0 {
										queries++
									}
								}
							}
						}
					}
				}
			}
		}
		if queries < 100 {
			t.Fatalf("seed %d: only %d queries returned groups; the store is too sparse to compare", seed, queries)
		}
	}
	st := randomFleetStore(1)
	for _, r := range []Rung{RungRaw, numRungs} {
		_, err := st.FleetQuery(FleetQueryRequest{Rung: r})
		_, want := sortFleetQuery(st, FleetQueryRequest{Rung: r})
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("rung %d: error %v, want %v", r, err, want)
		}
	}
}

// TestTypeAggregatesDeterministic: by=type aggregates merge their
// members in series name order, so repeated calls on one store, and
// stores fed the same series in different orders, give identical bytes.
func TestTypeAggregatesDeterministic(t *testing.T) {
	build := func(order []int) *Store {
		st := NewStore(Config{Capacity: 64})
		for i := 0; i < 20; i++ {
			for _, cpu := range order {
				typeName := "P-core"
				if cpu >= 16 {
					typeName = "E-core"
				}
				v := float64(cpu+1) * 1.37e6 * (1 + 0.113*float64(i))
				st.Append(Key{"m", CounterSeriesName(cpu, typeName, "instructions")}, float64(i), v)
				st.Append(Key{"m", CounterSeriesName(cpu, typeName, "cycles")}, float64(i), v/3)
			}
		}
		return st
	}
	order := make([]int, 24)
	for i := range order {
		order[i] = i
	}
	a := build(order)
	rand.New(rand.NewSource(3)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	b := build(order)

	want, err := json.Marshal(a.TypeAggregates("m", "instructions"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got, _ := json.Marshal(a.TypeAggregates("m", "instructions")); string(got) != string(want) {
			t.Fatalf("call %d differs from the first:\n%s\n%s", i, got, want)
		}
	}
	if got, _ := json.Marshal(b.TypeAggregates("m", "instructions")); string(got) != string(want) {
		t.Fatalf("stores fed in different orders differ:\n%s\n%s", got, want)
	}
	// Members merge in name order, so Last is the last name's last value.
	groups := a.TypeAggregates("m", "instructions")
	if len(groups) != 2 || groups[1].Type != "P-core" {
		t.Fatalf("groups %+v", groups)
	}
	if last, _ := a.Aggregate(Key{"m", CounterSeriesName(9, "P-core", "instructions")}); groups[1].Agg.Last != last.Last {
		t.Fatalf("P-core Last = %g, want cpu9's %g (cpu9 sorts last among cpu0..cpu15)", groups[1].Agg.Last, last.Last)
	}
}
