package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hetpapi/internal/fleet"
	"hetpapi/internal/scenario"
	"hetpapi/internal/stats"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	machines := []string{"m0000", "m0001", "m0002"}
	a := buildSchedule(7, 3000, 2*time.Second, machines)
	b := buildSchedule(7, 3000, 2*time.Second, machines)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := buildSchedule(8, 3000, 2*time.Second, machines); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 6000 {
		t.Fatalf("3000 qps for 2s gave %d jobs, want 6000", len(a))
	}
	counts := map[string]int{}
	for k, j := range a {
		if want := time.Duration(float64(k) / 3000 * float64(time.Second)); j.at != want {
			t.Fatalf("job %d due at %v, want %v", k, j.at, want)
		}
		path, _, _ := strings.Cut(j.target, "?")
		if got := endpointOf(path); got != j.endpoint {
			t.Fatalf("job %d: target %s accounts as %s, schedule says %s", k, j.target, got, j.endpoint)
		}
		counts[j.endpoint]++
	}
	for _, m := range mix {
		share := float64(counts[m.name]) / float64(len(a)) * 100
		if share < float64(m.weight)-3 || share > float64(m.weight)+3 {
			t.Errorf("%s: %.1f%% of requests, mix weight %d%%", m.name, share, m.weight)
		}
	}
}

// simulateQueue serves jobs first come first served on servers parallel
// servers with a fixed service time and returns each job's latency from
// its scheduled arrival, in ms.
func simulateQueue(jobs []job, servers int, serviceMs float64) []float64 {
	free := make([]float64, servers)
	lat := make([]float64, len(jobs))
	for k, j := range jobs {
		at := float64(j.at.Nanoseconds()) / 1e6
		sort.Float64s(free)
		start := max(at, free[0])
		free[0] = start + serviceMs
		lat[k] = free[0] - at
	}
	return lat
}

func TestKneeSearchFindsRungAgainstServiceModel(t *testing.T) {
	// Two servers at a fixed service time: capacity 2/service. It sits 1%
	// above rung 40, so rung 40 is the highest the model sustains and
	// rung 41 overloads it by about 3%.
	capacity := ladderRate(40) * 1.01
	serviceMs := 2 / capacity * 1e3
	probe := func(k int) bool {
		jobs := buildSchedule(1, ladderRate(k), 2*time.Second, []string{"m0000"})
		pass, _ := judge(jobs, simulateQueue(jobs, 2, serviceMs), 0)
		return pass
	}
	for _, start := range []int{0, 30, 39, 40, 41, 45, 80} {
		probed := map[int]bool{}
		k, ok := kneeSearch(start, 80, func(k int) bool {
			if probed[k] {
				t.Errorf("start %d: rung %d probed twice", start, k)
			}
			probed[k] = true
			return probe(k)
		})
		if !ok || k != 40 {
			t.Errorf("start %d: knee at rung %d (ok=%v), want 40", start, k, ok)
		}
		if len(probed) > 14 {
			t.Errorf("start %d: %d rungs probed, the gallop and bisection need at most 14", start, len(probed))
		}
	}
	if k, ok := kneeSearch(10, 18, func(int) bool { return false }); ok {
		t.Errorf("a ladder with no passing rung reported rung %d", k)
	}
	if k, ok := kneeSearch(10, 18, func(int) bool { return true }); !ok || k != 18 {
		t.Errorf("an all-passing ladder reported rung %d, want 18", k)
	}
}

func TestJudgeCriteria(t *testing.T) {
	jobs := buildSchedule(1, 2000, 2*time.Second, []string{"m0000"})
	fast := simulateQueue(jobs, 2, 0.5)
	if pass, why := judge(jobs, fast, 0); !pass {
		t.Fatalf("an idle service failed: %s", why)
	}
	if pass, _ := judge(jobs, fast, 1); pass {
		t.Error("a rung with an error passed")
	}
	slow := make([]float64, len(fast))
	for i := range slow {
		slow[i] = 0.5
		if i%50 == 0 {
			slow[i] = sloMs + 1 // 2% of requests over the SLO: p99 breaks it
		}
	}
	if pass, _ := judge(jobs, slow, 0); pass {
		t.Error("a rung with p99 over the SLO passed")
	}
	if pass, _ := judge(jobs, simulateQueue(jobs, 2, 1.1), 0); pass {
		t.Error("a 10% overloaded rung passed")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, false}, // nine samples beyond rank 989.01
		{1001, 99, true},
		{20, 50, false},
		{21, 50, true},
		{0, 50, false},
	} {
		xs := sample(c.n)
		v, ok := percentile(xs, c.p)
		if ok != c.want {
			t.Errorf("n=%d p%g: ok=%v, want %v", c.n, c.p, ok, c.want)
		}
		if ok && v != stats.Percentile(xs, c.p) {
			t.Errorf("n=%d p%g: %v differs from stats.Percentile %v", c.n, c.p, v, stats.Percentile(xs, c.p))
		}
	}
}

func TestBestOfTakesEachUnitsFastestRepeat(t *testing.T) {
	got := bestOf([][]float64{{3, 1, 4, 1}, {2, 7, 1}, {5, 0.5, 9, 2}})
	if want := []float64{2, 0.5, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bestOf gave %v, want %v", got, want)
	}
	if got := bestOf(nil); got != nil {
		t.Fatalf("bestOf(nil) gave %v", got)
	}
}

func TestWindowP50sCutsFullWindows(t *testing.T) {
	jobs := buildSchedule(1, 1000, 2*time.Second, []string{"m0000"})
	res := loadResult{rate: 1000, jobs: jobs, latMs: make([]float64, len(jobs))}
	for k := range jobs {
		res.latMs[k] = float64(k/500) + 1 // window w's requests all take w+1 ms
	}
	if got, want := windowP50s(res, 500*time.Millisecond), []float64{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("four full windows gave %v, want %v", got, want)
	}
	res.jobs, res.latMs = jobs[:1800], res.latMs[:1800]
	if got, want := windowP50s(res, 500*time.Millisecond), []float64{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a partial last window was reported: %v, want %v", got, want)
	}
}

func TestWindowRatesCountsFullWindows(t *testing.T) {
	// Three full windows; the two completions past 1500 ms fall in the
	// partial fourth and are dropped.
	done := []float64{10, 20, 499, 500, 900, 1499, 1500, 1600}
	got := windowRates(done, 1700*time.Millisecond, 500*time.Millisecond)
	if want := []float64{6, 4, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("windowRates gave %v, want %v", got, want)
	}
}

func TestTickPartsSumToTick(t *testing.T) {
	split := newTickSplit()
	rng := rand.New(rand.NewSource(3))
	now := int64(0)
	split.clock = func() int64 {
		now += 1 + rng.Int63n(500)
		return now
	}
	var marks []int64
	for tick := 0; tick < 50; tick++ {
		split.marker(tick%3 != 0)
		marks = append(marks, split.markT)
		for i := range invariantNames {
			split.beforeInvariant()
			split.afterInvariant(i)
		}
		split.hook()
	}
	split.marker(true)
	marks = append(marks, split.markT)
	if split.ticks != 50 {
		t.Fatalf("committed %d ticks, want 50", split.ticks)
	}
	if !split.closes() {
		t.Fatalf("read %d + audit %d + hooks %d + step %d != tick %d",
			split.readNs, split.auditNs, split.hooksNs, split.stepNs, split.ns)
	}
	if want := marks[len(marks)-1] - marks[0]; split.ns != want {
		t.Fatalf("ticks sum to %d ns, markers span %d", split.ns, want)
	}
	var inv int64
	for _, v := range split.invNs {
		inv += v
	}
	if inv != split.auditNs {
		t.Fatalf("invariants sum to %d ns, audit is %d", inv, split.auditNs)
	}
}

func TestTickSplitOnRealRunKeepsDigest(t *testing.T) {
	f, err := fleet.Generate(fleet.GenConfig{Machines: 6, Seed: 4, StaggerSec: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range f.Machines {
		plain, err := scenario.Run(ms.Spec.Clone())
		if err != nil {
			t.Fatal(err)
		}
		split := newTickSplit()
		spec := ms.Spec.Clone()
		s, err := scenario.Boot(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec, detach := split.attach(s, spec)
		traced, err := scenario.RunOn(s, spec)
		detach()
		if err != nil {
			t.Fatal(err)
		}
		if traced.Digest != plain.Digest {
			t.Errorf("%s: traced digest %s, untraced %s", ms.ID, short(traced.Digest), short(plain.Digest))
		}
		if !split.closes() || split.ticks == 0 {
			t.Errorf("%s: %d ticks, parts close: %v", ms.ID, split.ticks, split.closes())
		}
		if want := int64(traced.ElapsedSec/s.Tick()+0.5) - 1; split.ticks != want {
			t.Errorf("%s: committed %d ticks of a %d-tick run", ms.ID, split.ticks, want+1)
		}
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := sortedKeys(workloads); !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], catalog %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
