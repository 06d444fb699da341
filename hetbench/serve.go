package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hetpapi/internal/fleet"
	"hetpapi/internal/stats"
	"hetpapi/internal/telemetry"
	"hetpapi/internal/telemetry/httpobs"
)

// The serve-mix rig and traffic: hetpapiload's in-process rig (a
// 12-machine seeded fleet streamed into a store, served by the composed
// Handler on loopback) and its endpoint mix.
const (
	rigMachines = 12
	gzipFrac    = 0.5
	reqHeader   = "X-Hetbench-Req" // schedule index, for pairing client and handler times
)

// mix is hetpapiload's default endpoint mix (weights in percent).
var mix = []struct {
	name   string
	weight int
	build  func(machines []string, rng *rand.Rand) string
}{
	{"query", 30, func(ms []string, rng *rand.Rand) string {
		return "/query?machine=" + ms[rng.Intn(len(ms))] + "&series=power_w&agg=1"
	}},
	{"series", 20, func(ms []string, rng *rand.Rand) string { return "/series?machine=" + ms[rng.Intn(len(ms))] }},
	{"fleet_query", 15, func([]string, *rand.Rand) string { return "/fleet/query?rung=10s" }},
	{"metrics", 15, func([]string, *rand.Rand) string { return "/metrics" }},
	{"status", 10, func([]string, *rand.Rand) string { return "/status" }},
	{"health", 10, func([]string, *rand.Rand) string { return "/health" }},
}

// endpointOf maps a request path to its accounting name.
func endpointOf(path string) string {
	switch path {
	case "/query":
		return "query"
	case "/series":
		return "series"
	case "/fleet/query":
		return "fleet_query"
	case "/metrics":
		return "metrics"
	case "/status":
		return "status"
	case "/health":
		return "health"
	}
	return "other"
}

// job is one scheduled request of an open-loop schedule.
type job struct {
	at       time.Duration // offset of the scheduled arrival from the phase start
	endpoint string
	target   string
	gzip     bool
}

// buildSchedule derives a phase's request schedule from its seed:
// arrival k at k/rate, endpoint by weighted draw, gzip by fraction. The
// same arguments always give the same schedule.
func buildSchedule(seed int64, rate float64, dur time.Duration, machines []string) []job {
	var pick []int
	for i, m := range mix {
		for w := 0; w < m.weight; w++ {
			pick = append(pick, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * dur.Seconds())
	jobs := make([]job, n)
	for k := range jobs {
		m := mix[pick[rng.Intn(len(pick))]]
		jobs[k] = job{
			at:       time.Duration(float64(k) / rate * float64(time.Second)),
			endpoint: m.name,
			target:   m.build(machines, rng),
			gzip:     rng.Float64() < gzipFrac,
		}
	}
	return jobs
}

// phaseSeed derives the schedule seed of one load phase.
func phaseSeed(seed int64, phase int) int64 { return seed*1000003 + int64(phase) }

// handlerRec is one request as the handler wrapper saw it.
type handlerRec struct {
	id       int
	endpoint string
	ns       int64
}

// handlerTimer is the benchmark's wrapper around Server.Handler(): it
// times each request's handler and counts it per endpoint, without
// touching the response.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	recs []handlerRec
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	ns := time.Since(t0).Nanoseconds()
	id, err := strconv.Atoi(r.Header.Get(reqHeader))
	if err != nil {
		id = -1
	}
	h.mu.Lock()
	h.recs = append(h.recs, handlerRec{id: id, endpoint: endpointOf(r.URL.Path), ns: ns})
	h.mu.Unlock()
}

// drain waits until the wrapper has seen n requests (a handler's
// bookkeeping can finish just after its client has the response), then
// takes its records.
func (h *handlerTimer) drain(n int) []handlerRec {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		h.mu.Lock()
		if len(h.recs) >= n || time.Now().After(deadline) {
			recs := h.recs
			h.recs = nil
			h.mu.Unlock()
			return recs
		}
		h.mu.Unlock()
	}
}

// rig is one built serving rig.
type rig struct {
	store    *telemetry.Store
	fleet    *fleet.Fleet
	run      fleetRun
	machines []string
	timer    *handlerTimer
	client   *http.Client
	conns    int
	srv      *http.Server
	served   chan error
	base     string
	digest   string // report and fixed-query bodies
}

// buildRig streams the seeded fleet into a fresh store and starts the
// real composed handler, wrapped by the handler timer, on loopback.
func buildRig(b *bench, seed int64) (*rig, error) {
	rg := &rig{store: telemetry.NewStore(telemetry.Config{Capacity: 4096, Shards: 8})}
	var err error
	rg.fleet, err = fleet.Generate(fleet.GenConfig{Machines: rigMachines, Seed: seed, StaggerSec: 0.2})
	if err != nil {
		return nil, err
	}
	if rg.run, err = runFleet(b, rg.fleet, rg.store, 0, nil); err != nil {
		return nil, err
	}
	for _, ms := range rg.fleet.Machines {
		rg.machines = append(rg.machines, ms.ID)
	}
	h := telemetry.NewServer(rg.store, 5*time.Second).Handler()

	// The rig's digest: the fleet report's bytes plus the bodies of the
	// deterministic store reads the mix issues.
	d := sha256.New()
	if err := rg.run.rep.Compact().WriteJSON(d); err != nil {
		return nil, err
	}
	for _, target := range []string{
		"/query?machine=" + rg.machines[0] + "&series=power_w&agg=1",
		"/series?machine=" + rg.machines[0],
		"/fleet/query?rung=10s",
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("rig self-check %s: status %d", target, w.Code)
		}
		fmt.Fprintf(d, "%s %s\n", target, w.Body.Bytes())
	}
	rg.digest = hex.EncodeToString(d.Sum(nil))

	rg.timer = &handlerTimer{next: h}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rg.base = "http://" + ln.Addr().String()
	rg.conns = runtime.NumCPU()
	rg.client = &http.Client{
		Timeout: 30 * time.Second,
		// Compression is off so the schedule, not net/http, chooses
		// Accept-Encoding; the pool never exceeds nproc connections.
		Transport: &http.Transport{
			DisableCompression:  true,
			MaxConnsPerHost:     rg.conns,
			MaxIdleConnsPerHost: rg.conns,
		},
	}
	rg.srv = &http.Server{Handler: rg.timer}
	rg.served = make(chan error, 1)
	go func() { rg.served <- rg.srv.Serve(ln) }()
	return rg, nil
}

// close stops the server and waits for its Serve loop to return.
func (rg *rig) close() {
	rg.srv.Close()
	<-rg.served
	rg.client.CloseIdleConnections()
}

// loadResult is one open-loop phase, indexed by schedule position.
type loadResult struct {
	rate    float64
	jobs    []job
	latMs   []float64 // completion minus scheduled arrival
	lateMs  []float64 // dispatch minus scheduled arrival
	status  []int
	bytes   int64
	errors  int // transport errors and non-2xx responses
	allocs  uint64
	util    float64 // process CPU time over wall time x nproc
	handler []handlerRec
}

// load drives jobs open loop: the dispatcher releases each job at its
// scheduled arrival whatever the pool is doing, and nproc workers (one
// connection each) serve them.
func (rg *rig) load(ctx context.Context, jobs []job, rate float64) loadResult {
	res := loadResult{
		rate: rate, jobs: jobs,
		latMs: make([]float64, len(jobs)), lateMs: make([]float64, len(jobs)), status: make([]int, len(jobs)),
	}
	nbytes := make([]int64, len(jobs))
	// Sized to the whole schedule, so a saturated pool delays service,
	// never arrival.
	queue := make(chan int, len(jobs))
	ac := newAllocCounter()
	a0, _ := ac.read()
	cpu0 := cpuSeconds()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < rg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				res.status[k], nbytes[k] = rg.get(ctx, k, jobs[k])
				res.latMs[k] = float64(time.Since(start.Add(jobs[k].at)).Nanoseconds()) / 1e6
			}
		}()
	}
	for k, j := range jobs {
		if d := time.Until(start.Add(j.at)); d > 0 {
			time.Sleep(d)
		}
		res.lateMs[k] = float64(time.Since(start.Add(j.at)).Nanoseconds()) / 1e6
		queue <- k
	}
	close(queue)
	wg.Wait()
	res.util = (cpuSeconds() - cpu0) / (time.Since(start).Seconds() * float64(runtime.NumCPU()))
	a1, _ := ac.read()
	res.allocs = a1 - a0
	for k, st := range res.status {
		if st < 200 || st > 299 {
			res.errors++
		}
		res.bytes += nbytes[k]
	}
	res.handler = rg.timer.drain(len(jobs))
	return res
}

// saturate drives the rig closed loop for dur: each of its nproc
// connections sends requests back to back, the k-th request being
// pool[k % len(pool)] whatever its arrival time. It returns the phase as
// a loadResult over the requests sent, with latMs holding each one's
// completion time from the phase start.
func (rg *rig) saturate(ctx context.Context, pool []job, dur time.Duration) loadResult {
	type done struct {
		k      int
		ms     float64
		status int
	}
	var next atomic.Int64
	got := make([][]done, rg.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				k := int(next.Add(1) - 1)
				st, _ := rg.get(ctx, k, pool[k%len(pool)])
				got[w] = append(got[w], done{k, float64(time.Since(start).Nanoseconds()) / 1e6, st})
			}
		}()
	}
	wg.Wait()
	n := int(next.Load())
	res := loadResult{jobs: make([]job, n), latMs: make([]float64, n), status: make([]int, n)}
	for k := range res.jobs {
		res.jobs[k] = pool[k%len(pool)]
	}
	for _, ds := range got {
		for _, d := range ds {
			res.latMs[d.k], res.status[d.k] = d.ms, d.status
		}
	}
	res.rate = float64(n) / time.Since(start).Seconds()
	for _, st := range res.status {
		if st < 200 || st > 299 {
			res.errors++
		}
	}
	res.handler = rg.timer.drain(n)
	return res
}

// get sends job k and returns its status code (0 on a transport error)
// and the body's length.
func (rg *rig) get(ctx context.Context, k int, j job) (int, int64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rg.base+j.target, nil)
	if err != nil {
		return 0, 0
	}
	req.Header.Set(reqHeader, strconv.Itoa(k))
	if j.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := rg.client.Do(req)
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, n
	}
	return resp.StatusCode, n
}

// windowRates returns the completions per second of each full window of
// a saturate phase lasting dur.
func windowRates(doneMs []float64, dur, window time.Duration) []float64 {
	n := int(dur / window)
	if n == 0 {
		return nil
	}
	counts := make([]int, n)
	w := float64(window.Nanoseconds()) / 1e6
	for _, ms := range doneMs {
		if i := int(ms / w); i < n {
			counts[i]++
		}
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / window.Seconds()
	}
	return rates
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// checkCounts fails the run unless the handler wrapper saw exactly the
// requests the client sent, endpoint by endpoint.
func (res *loadResult) checkCounts(b *bench, phase string) {
	client, server := map[string]int{}, map[string]int{}
	for _, j := range res.jobs {
		client[j.endpoint]++
	}
	for _, h := range res.handler {
		server[h.endpoint]++
	}
	for _, ep := range sortedKeys(client) {
		b.check(client[ep] == server[ep], "%s: %s: client sent %d requests, handler saw %d", phase, ep, client[ep], server[ep])
	}
	b.check(len(res.handler) == len(res.jobs), "%s: client sent %d requests, handler saw %d", phase, len(res.jobs), len(res.handler))
}

// Knee criteria: hetpapid's default latency SLO on the p99, no errors,
// and no growing backlog.
const sloMs = httpobs.DefaultSLOLatencyMs

// maxBacklog is the largest share of a rung's requests that may still be
// unfinished when its last request is due. Below capacity only the
// requests in flight remain (a fraction of a percent); above it the
// queue left behind grows with the overload.
const maxBacklog = 0.02

// judge decides one ladder rung from its schedule and latencies.
func judge(jobs []job, latMs []float64, errors int) (bool, string) {
	if errors > 0 {
		return false, fmt.Sprintf("%d errors", errors)
	}
	p99, ok := percentile(latMs, 99)
	if !ok {
		return false, fmt.Sprintf("%d samples are too few for a p99", len(latMs))
	}
	if p99 > sloMs {
		return false, fmt.Sprintf("p99 %.1fms over the %gms SLO", p99, sloMs)
	}
	lastDue := float64(jobs[len(jobs)-1].at.Nanoseconds()) / 1e6
	pending := 0
	for k, j := range jobs {
		if float64(j.at.Nanoseconds())/1e6+latMs[k] > lastDue {
			pending++
		}
	}
	if frac := float64(pending) / float64(len(jobs)); frac > maxBacklog {
		return false, fmt.Sprintf("backlog grows: %.1f%% of requests unfinished at the last arrival", frac*100)
	}
	return true, fmt.Sprintf("p99 %.2fms, %d unfinished at the last arrival", p99, pending)
}

// The knee ladder: rate(k) = kneeBase * kneeStep^k, steps of 4%.
const (
	kneeBase = 1000.0
	kneeStep = 1.04
	kneeMaxK = 80 // about 23000 qps
)

func ladderRate(k int) float64 { return kneeBase * math.Pow(kneeStep, float64(k)) }

// ladderIndex is the highest rung at or below rate.
func ladderIndex(rate float64) int {
	return int(math.Floor(math.Log(rate/kneeBase)/math.Log(kneeStep) + 1e-9))
}

// kneeSearch returns the highest passing rung below a failing one on
// the ladder [0, maxK] (ok false when rung 0 fails too; maxK when every
// rung up to it passes). It gallops from start away from the knee's side
// (1, 2, 4, ... rungs) until the verdict flips, then bisects the bracket,
// so a start estimate far off costs only a few more rungs.
func kneeSearch(start, maxK int, pass func(k int) bool) (int, bool) {
	start = min(max(start, 0), maxK)
	lo, hi := start, start // lo passes, hi fails, once the bracket is known
	if pass(start) {
		for step := 1; ; step *= 2 {
			if lo == maxK {
				return maxK, true
			}
			k := min(lo+step, maxK)
			if !pass(k) {
				hi = k
				break
			}
			lo = k
		}
	} else {
		for step := 1; ; step *= 2 {
			if hi == 0 {
				return 0, false
			}
			k := max(hi-step, 0)
			if pass(k) {
				lo = k
				break
			}
			hi = k
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// The measured part of a serve-mix run alternates 1000 qps phases of
// cycle1k with saturation phases of cycleSat, each cut into windows of
// rateWindow for latency_ms and throughput.
const (
	cycle1k    = 1500 * time.Millisecond
	cycleSat   = 2 * time.Second
	rateWindow = 500 * time.Millisecond
)

// windowP50s cuts a phase into windows of scheduled arrivals and returns
// each full window's median latency. The windows carry the same traffic,
// so the fastest window's median is the phase's least disturbed reading.
func windowP50s(res loadResult, window time.Duration) []float64 {
	var p50s, lat []float64
	end := window
	flush := func() {
		if v, ok := percentile(lat, 50); ok {
			p50s = append(p50s, v)
		}
		lat = lat[:0]
	}
	for k, j := range res.jobs {
		for j.at >= end {
			flush()
			end += window
		}
		lat = append(lat, res.latMs[k])
	}
	if len(res.jobs) > 0 && res.jobs[len(res.jobs)-1].at+time.Duration(float64(time.Second)/res.rate) >= end {
		flush() // the last window is full
	}
	return p50s
}

// lateLimitMs is how far behind schedule the generator may dispatch at
// the 99th percentile before a fixed-rate phase is rejected.
const lateLimitMs = 25

// runServeMix measures set-up (rig build), the median latency at
// 1000 qps (its fastest window, see windowP50s), the saturation
// throughput (its fastest window) and the heap peak, then searches the
// open-loop ladder for the SLO knee.
func runServeMix(b *bench) error {
	ctx := context.Background()
	// Every rig but the last is closed as soon as the next is built.
	var rg *rig
	var first string
	n := 0
	setup, err := setups(func() error {
		next, err := buildRig(b, b.cfg.seed)
		if err != nil {
			return err
		}
		if rg != nil {
			rg.close()
		} else {
			first = next.digest
		}
		rg = next
		b.check(rg.digest == first, "rig %d digest %s differs from rig 0 %s", n, short(rg.digest), short(first))
		n++
		return nil
	})
	if rg != nil {
		defer rg.close()
	}
	if err != nil {
		return err
	}
	b.set("setup_s", setup)

	seconds := b.cfg.seconds
	heap := startHeapSampler()
	phase := func(id int, rate float64, secs float64, name string) loadResult {
		runtime.GC() // every phase starts from the same heap state
		t0 := time.Now()
		dur := time.Duration(secs * float64(time.Second))
		res := rg.load(ctx, buildSchedule(phaseSeed(b.cfg.seed, id), rate, dur, rg.machines), rate)
		b.span("http", name, t0)
		res.checkCounts(b, name)
		return res
	}
	fixedPhase := func(id int, rate, secs float64) loadResult {
		name := fmt.Sprintf("%.0f qps", rate)
		res := phase(id, rate, secs, name)
		b.check(res.errors == 0, "%s: %d of %d requests failed", name, res.errors, len(res.jobs))
		late, _ := percentile(res.lateMs, 99)
		b.check(late <= lateLimitMs, "%s: generator fell behind, dispatch p99 %.2fms late", name, late)
		b.count(int64(len(res.jobs)), int64(res.errors))
		return res
	}
	// Warm connections, pools and code paths; not reported.
	phase(0, 1000, 1, "warm-up")

	// Short 1000 qps phases alternate with short saturation phases
	// (requests back to back on every connection) for most of the run,
	// so the fastest windows of each are drawn from all of it.
	var p50s, rates []float64
	var at1k []loadResult
	satRequests, satSec := 0, 0.0
	pool := buildSchedule(phaseSeed(b.cfg.seed, 3), 1000, 5*time.Second, rg.machines)
	for end := time.Now().Add(time.Duration(0.7 * seconds * float64(time.Second))); len(at1k) < 2 || time.Now().Before(end); {
		res := fixedPhase(10+len(at1k), 1000, cycle1k.Seconds())
		at1k = append(at1k, res)
		p50s = append(p50s, windowP50s(res, rateWindow)...)

		runtime.GC()
		t0 := time.Now()
		sat := rg.saturate(ctx, pool, cycleSat)
		b.span("http", "saturation", t0)
		sat.checkCounts(b, "saturation")
		b.check(sat.errors == 0, "saturation: %d of %d requests failed", sat.errors, len(sat.jobs))
		b.count(int64(len(sat.jobs)), int64(sat.errors))
		rates = append(rates, windowRates(sat.latMs, cycleSat, rateWindow)...)
		satRequests += len(sat.jobs)
		satSec += cycleSat.Seconds()
	}
	at3k := fixedPhase(2, 3000, max(1, 0.05*seconds))
	b.set("heap_peak_mb", heap.stopMB())
	b.set("latency_ms", slices.Min(p50s))
	b.set("throughput", slices.Max(rates))

	// The SLO knee, printed beside the metrics: search the open-loop
	// ladder from four fifths of the mean saturation rate, about where
	// the knee lies on this mix.
	satRate := float64(satRequests) / satSec
	start := ladderIndex(0.8 * satRate)
	tried := 0
	k, ok := kneeSearch(start, kneeMaxK, func(k int) bool {
		rate := ladderRate(k)
		name := fmt.Sprintf("rung %.0f qps", rate)
		res := phase(100+k, rate, 1, name)
		pass, why := judge(res.jobs, res.latMs, res.errors)
		b.note("%s: pass=%v %s", name, pass, why)
		tried++
		return pass
	})
	b.check(ok, "no rung of the ladder met the knee criteria")

	var all1k loadResult
	for _, res := range at1k {
		all1k.latMs = append(all1k.latMs, res.latMs...)
		all1k.lateMs = append(all1k.lateMs, res.lateMs...)
		all1k.util += res.util / float64(len(at1k))
	}
	all1k.rate = 1000
	b.note("1000 qps: p50 per %v window %.3f", rateWindow, p50s)
	b.note("saturation: %d requests, %.0f qps on average, per %v window %.0f", satRequests, satRate, rateWindow, rates)
	for _, res := range []loadResult{all1k, at3k} {
		p50, _ := percentile(res.latMs, 50)
		p99, _ := percentile(res.latMs, 99)
		late, _ := percentile(res.lateMs, 99)
		b.note("%.0f qps: %d requests, p50 %.3fms p99 %.3fms, generator late p99 %.3fms, cpu %.0f%%",
			res.rate, len(res.latMs), p50, p99, late, res.util*100)
	}
	b.note("SLO knee %.0f qps after %d one-second rungs from %.0f; rig digest %s",
		ladderRate(k), tried, ladderRate(start), short(rg.digest))
	return nil
}

// traceServeMix builds one rig and records the store, streamer and
// replay layers of its fleet for a quarter of --seconds, then alternates
// untraced and traced 3000 qps phases for the rest and splits the traced
// ones by endpoint.
func traceServeMix(b *bench) error {
	ctx := context.Background()
	start := time.Now()
	seconds := time.Duration(b.cfg.seconds * float64(time.Second))
	rg, err := buildRig(b, b.cfg.seed)
	if err != nil {
		return err
	}
	defer rg.close()
	b.count(int64(len(rg.fleet.Machines)), rg.run.failures)
	streamLayers(b, rg.run.streamer, rg.store, rg.fleet, fleet.AnomalyConfig{Threshold: 4})
	if err := replayLayers(b, rg.fleet, rg.run.digests, start.Add(seconds/4), 2*len(rg.fleet.Machines)); err != nil {
		return err
	}

	// Enough traced requests for ten beyond every endpoint's p99: the
	// rarest endpoints carry a tenth of the mix.
	const phaseDur = 2 * time.Second
	var plainMs []float64
	var traced loadResult
	for phase := 0; len(traced.jobs) < 12000 || time.Since(start) < seconds; phase++ {
		jobs := buildSchedule(phaseSeed(b.cfg.seed, 10+phase), 3000, phaseDur, rg.machines)
		runtime.GC()
		b.rec.Disable()
		plain := rg.load(ctx, jobs, 3000)
		b.rec.Enable()
		runtime.GC()
		t0 := time.Now()
		res := rg.load(ctx, jobs, 3000)
		b.span("http", "load 3000 qps", t0)
		for _, r := range []loadResult{plain, res} {
			r.checkCounts(b, "3000 qps")
			b.check(r.errors == 0, "3000 qps: %d of %d requests failed", r.errors, len(r.jobs))
			b.count(int64(len(r.jobs)), int64(r.errors))
		}
		plainMs = append(plainMs, plain.latMs...)
		// Handler ids index this phase's schedule; shift them past the
		// phases already merged.
		for i := range res.handler {
			if res.handler[i].id >= 0 {
				res.handler[i].id += len(traced.jobs)
			}
		}
		traced.jobs = append(traced.jobs, res.jobs...)
		traced.latMs = append(traced.latMs, res.latMs...)
		traced.lateMs = append(traced.lateMs, res.lateMs...)
		traced.handler = append(traced.handler, res.handler...)
		traced.bytes += res.bytes
		traced.allocs += res.allocs
	}

	perEp := map[string][]float64{}
	wait := make([]float64, 0, len(traced.handler))
	for _, h := range traced.handler {
		ms := float64(h.ns) / 1e6
		perEp[h.endpoint] = append(perEp[h.endpoint], ms)
		if h.id >= 0 && h.id < len(traced.latMs) {
			wait = append(wait, traced.latMs[h.id]-ms)
		}
	}
	for _, ep := range httpEndpoints {
		b.setPercentile("http."+ep+".handler_ms.p50", perEp[ep], 50)
		b.setPercentile("http."+ep+".handler_ms.p99", perEp[ep], 99)
	}
	b.setPercentile("http.wait_ms.p99", wait, 99)
	n := float64(len(traced.jobs))
	b.set("http.bytes_per_req", float64(traced.bytes)/n)
	b.set("http.allocs_per_req", float64(traced.allocs)/n)
	b.setPercentile("loadgen.late_ms.p99", traced.lateMs, 99)
	b.set("trace.overhead_pct", (stats.Median(traced.latMs)/stats.Median(plainMs)-1)*100)
	b.note("3000 qps, %d requests each side: client p50 %.3fms traced vs %.3fms untraced",
		len(traced.jobs), stats.Median(traced.latMs), stats.Median(plainMs))
	return nil
}
