// Command hetpapiload is the open-loop load harness for the hetpapid
// serving surface: it drives a seeded, deterministic request schedule
// (endpoint mix and gzip choice derived from -seed, arrivals at a fixed
// -rate) through N concurrent scrapers against either an in-process
// daemon rig or a remote daemon, and reports client-side p50/p99
// latency, error rate, throughput and allocations per request.
//
// Open loop means arrivals do not wait for completions: request k is
// due at k/rate seconds after start, and its latency is measured from
// that scheduled arrival, so queueing delay under overload is part of
// the number instead of silently throttling the offered load
// (coordinated omission).
//
// With no -addr the harness builds the in-process rig: a seeded fleet
// (fleet.Generate + fleet.Run) streams a realistic population into a
// store, and the real telemetry server — the same composed handler the
// daemon serves, observer included — listens on a loopback port. The
// harness then self-validates against the server's own /status view:
// per-endpoint request counts must match exactly, and the server-side
// p99 must agree with the client-side p99 within the stated bound
// (server_p99 <= client_p99 * -agree-factor + -agree-slack-ms; the
// client number includes scheduling delay and loopback I/O, so it
// upper-bounds the server's handler-side view).
//
// The -min-qps and -max-p99-ms gates are enforced on the run itself, and
// any failed request fails it too, so a CI load-smoke step fails when
// the serving path regresses.
//
// Usage:
//
//	hetpapiload [-addr host:port] [-duration 5s] [-rate 400] [-workers 8]
//	            [-mix query=30,series=20,fleet=15,metrics=15,status=10,health=10]
//	            [-gzip 0.5] [-seed 1] [-fleet-n 12]
//	            [-min-qps Q] [-max-p99-ms MS]
//	            [-agree-factor 3] [-agree-slack-ms 25] [-quiet]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hetpapi/internal/fleet"
	"hetpapi/internal/stats"
	"hetpapi/internal/telemetry"
	"hetpapi/internal/telemetry/client"
	"hetpapi/internal/telemetry/httpobs"
)

type config struct {
	addr     string
	duration time.Duration
	rate     float64
	workers  int
	mix      string
	gzipFrac float64
	seed     int64
	fleetN   int

	minQPS     float64
	maxP99Ms   float64
	agreeFac   float64
	agreeSlack float64

	quiet bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "daemon address host:port (empty: build the in-process rig)")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "load duration")
	flag.Float64Var(&cfg.rate, "rate", 400, "offered request rate per second (open loop)")
	flag.IntVar(&cfg.workers, "workers", 8, "concurrent scraper workers")
	flag.StringVar(&cfg.mix, "mix", "query=30,series=20,fleet=15,metrics=15,status=10,health=10",
		"endpoint mix as name=weight pairs (query, series, fleet, metrics, status, health)")
	flag.Float64Var(&cfg.gzipFrac, "gzip", 0.5, "fraction of requests sent with Accept-Encoding: gzip")
	flag.Int64Var(&cfg.seed, "seed", 1, "schedule seed (endpoint and gzip choices derive from it)")
	flag.IntVar(&cfg.fleetN, "fleet-n", 12, "in-process rig fleet size (ignored with -addr)")
	flag.Float64Var(&cfg.minQPS, "min-qps", 0, "fail the run if completed QPS falls below this (0 disables)")
	flag.Float64Var(&cfg.maxP99Ms, "max-p99-ms", 0, "fail the run if client-side p99 exceeds this (0 disables)")
	flag.Float64Var(&cfg.agreeFac, "agree-factor", 3, "client/server p99 agreement factor")
	flag.Float64Var(&cfg.agreeSlack, "agree-slack-ms", 25, "client/server p99 agreement slack in ms")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress the per-endpoint breakdown")
	flag.Parse()

	if _, err := run(context.Background(), cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hetpapiload:", err)
		os.Exit(1)
	}
}

// endpointKind is one entry of the -mix vocabulary.
type endpointKind struct {
	name string
	// build returns the request path for the k-th request, given the
	// machine pool and the schedule rng.
	build func(machines []string, rng *rand.Rand) string
}

var kinds = []endpointKind{
	{"query", func(ms []string, rng *rand.Rand) string {
		return "/query?machine=" + ms[rng.Intn(len(ms))] + "&series=power_w&agg=1"
	}},
	{"series", func(ms []string, rng *rand.Rand) string {
		return "/series?machine=" + ms[rng.Intn(len(ms))]
	}},
	{"fleet", func(ms []string, rng *rand.Rand) string { return "/fleet/query?rung=10s" }},
	{"metrics", func(ms []string, rng *rand.Rand) string { return "/metrics" }},
	{"status", func(ms []string, rng *rand.Rand) string { return "/status" }},
	{"health", func(ms []string, rng *rand.Rand) string { return "/health" }},
}

// parseMix turns "query=30,series=20" into per-kind weights.
func parseMix(mix string) (map[string]int, error) {
	known := map[string]bool{}
	for _, k := range kinds {
		known[k.name] = true
	}
	out := map[string]int{}
	total := 0
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want name=weight)", part)
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown mix endpoint %q", name)
		}
		w, err := strconv.Atoi(weightStr)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		out[name] = w
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("mix %q has no positive weights", mix)
	}
	return out, nil
}

// job is one scheduled request.
type job struct {
	at       time.Duration // offset from load start (the open-loop arrival)
	endpoint string        // accounting endpoint ("/query", "/metrics", ...)
	target   string        // full path+query
	gzip     bool
}

// buildSchedule derives the deterministic request schedule from the
// seed: arrival k at k/rate, endpoint by weighted draw, gzip by
// fraction. The same seed, rate, duration, mix and machine pool always
// produce the same schedule.
func buildSchedule(cfg config, machines []string) ([]job, error) {
	weights, err := parseMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	needsMachines := weights["query"] > 0 || weights["series"] > 0
	if needsMachines && len(machines) == 0 {
		return nil, fmt.Errorf("mix needs per-machine endpoints but no machines were discovered")
	}
	var pick []endpointKind
	for _, k := range kinds {
		for i := 0; i < weights[k.name]; i++ {
			pick = append(pick, k)
		}
	}
	total := int(cfg.rate * cfg.duration.Seconds())
	if total <= 0 {
		return nil, fmt.Errorf("rate %g over %s yields no requests", cfg.rate, cfg.duration)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	period := time.Duration(float64(time.Second) / cfg.rate)
	jobs := make([]job, total)
	for k := 0; k < total; k++ {
		kind := pick[rng.Intn(len(pick))]
		target := kind.build(machines, rng)
		path := target
		if i := strings.IndexByte(path, '?'); i >= 0 {
			path = path[:i]
		}
		jobs[k] = job{
			at:       time.Duration(k) * period,
			endpoint: path,
			target:   target,
			gzip:     rng.Float64() < cfg.gzipFrac,
		}
	}
	return jobs, nil
}

// result is one completed request.
type result struct {
	endpoint string
	latency  time.Duration // from the scheduled arrival (includes queue delay)
	status   int
	err      error
}

// epStats accumulates one endpoint's client-side view.
type epStats struct {
	latMs  []float64
	errors int
}

// startInProcess builds the in-process rig: run a seeded fleet to
// stream a realistic population into a store, then serve the real
// composed handler on a loopback listener.
func startInProcess(ctx context.Context, cfg config, logw io.Writer) (addr string, machines []string, shutdown func(), err error) {
	store := telemetry.NewStore(telemetry.Config{Capacity: 4096, Shards: 8})
	f, err := fleet.Generate(fleet.GenConfig{
		Machines:   cfg.fleetN,
		Seed:       cfg.seed,
		StaggerSec: 0.2,
	})
	if err != nil {
		return "", nil, nil, err
	}
	streamer := telemetry.NewStreamer(store, 0)
	if _, err := fleet.Run(ctx, f, fleet.RunConfig{Streamer: streamer}); err != nil {
		return "", nil, nil, fmt.Errorf("rig fleet run: %w", err)
	}
	for _, m := range f.Machines {
		machines = append(machines, m.ID)
	}
	api := telemetry.NewServer(store, 5*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	srv := &http.Server{Handler: api.Handler()}
	go srv.Serve(ln)
	fmt.Fprintf(logw, "hetpapiload: in-process rig: %d-machine fleet streamed, serving on %s\n",
		cfg.fleetN, ln.Addr())
	return ln.Addr().String(), machines, func() { srv.Close() }, nil
}

// summary is the client-side view of one load run.
type summary struct {
	Machines    int
	Requests    int
	Workers     int
	QPS         float64
	P50Ms       float64
	P95Ms       float64
	P99Ms       float64
	MaxMs       float64
	ErrorPct    float64
	AllocsPerOp float64
	// ServerP99Ms is the worst per-endpoint p99 the daemon's own /status
	// reported for the run; P99AgreeMs is the largest (server - client)
	// per-endpoint p99 gap, negative when the client view upper-bounds
	// the server view everywhere (the expected steady state).
	ServerP99Ms float64
	P99AgreeMs  float64
}

// run drives one load run and returns its summary. It fails when the
// rig cannot start, the load is cancelled, the self-validation fails or
// a gate is missed; the summary is filled in once the load completed.
func run(ctx context.Context, cfg config, logw io.Writer) (summary, error) {
	var machines []string
	addr := cfg.addr
	if addr == "" {
		var shutdown func()
		var err error
		addr, machines, shutdown, err = startInProcess(ctx, cfg, logw)
		if err != nil {
			return summary{}, err
		}
		defer shutdown()
	} else {
		// Remote daemons list their registered collector machines.
		infos, err := client.New("http://" + addr).Machines(ctx)
		if err != nil {
			return summary{}, fmt.Errorf("discovering machines: %w", err)
		}
		for _, m := range infos {
			machines = append(machines, m.Name)
		}
	}

	jobs, err := buildSchedule(cfg, machines)
	if err != nil {
		return summary{}, err
	}
	base := "http://" + addr

	// The scrape pool. Compression is disabled on the transport so the
	// Accept-Encoding choice is the schedule's, not net/http's.
	transport := &http.Transport{
		DisableCompression:  true,
		MaxIdleConns:        cfg.workers * 2,
		MaxIdleConnsPerHost: cfg.workers * 2,
	}
	httpc := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	workers := cfg.workers
	if workers <= 0 {
		workers = 1
	}

	jobCh := make(chan job, len(jobs))
	results := make([]result, len(jobs))
	var ridx int64
	var resMu sync.Mutex
	var wg sync.WaitGroup

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+j.target, nil)
				if err == nil {
					if j.gzip {
						req.Header.Set("Accept-Encoding", "gzip")
					}
					var resp *http.Response
					resp, err = httpc.Do(req)
					if err == nil {
						_, err = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if err == nil && resp.StatusCode >= 400 {
							err = nil // counted via status, not as a transport error
						}
						lat := time.Since(start.Add(j.at))
						resMu.Lock()
						results[ridx] = result{endpoint: j.endpoint, latency: lat, status: resp.StatusCode}
						ridx++
						resMu.Unlock()
						continue
					}
				}
				lat := time.Since(start.Add(j.at))
				resMu.Lock()
				results[ridx] = result{endpoint: j.endpoint, latency: lat, err: err}
				ridx++
				resMu.Unlock()
			}
		}()
	}

	// Open-loop dispatcher: release each job at its scheduled arrival.
	// The channel is sized for the whole schedule, so a saturated pool
	// delays service, never arrival.
	for _, j := range jobs {
		if d := time.Until(start.Add(j.at)); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-ctx.Done():
			close(jobCh)
			wg.Wait()
			return summary{}, ctx.Err()
		case jobCh <- j:
		}
	}
	close(jobCh)
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	// Client-side accounting.
	perEp := map[string]*epStats{}
	var allMs []float64
	errors := 0
	for _, r := range results[:ridx] {
		es := perEp[r.endpoint]
		if es == nil {
			es = &epStats{}
			perEp[r.endpoint] = es
		}
		ms := r.latency.Seconds() * 1e3
		es.latMs = append(es.latMs, ms)
		allMs = append(allMs, ms)
		if r.err != nil || r.status >= 400 {
			es.errors++
			errors++
		}
	}
	sort.Float64s(allMs)
	sc := summary{
		Machines:    len(machines),
		Requests:    int(ridx),
		Workers:     workers,
		QPS:         float64(ridx) / elapsed.Seconds(),
		P50Ms:       stats.SortedPercentile(allMs, 50),
		P95Ms:       stats.SortedPercentile(allMs, 95),
		P99Ms:       stats.SortedPercentile(allMs, 99),
		ErrorPct:    100 * float64(errors) / float64(ridx),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ridx),
	}
	if n := len(allMs); n > 0 {
		sc.MaxMs = allMs[n-1]
	}

	// Self-validation against the server's own /status view.
	status, err := client.New(base).Status(ctx)
	if err != nil {
		return sc, fmt.Errorf("fetching /status for self-validation: %w", err)
	}
	serverEp := map[string]httpobs.EndpointStatus{}
	for _, es := range status.Endpoints {
		serverEp[es.Endpoint] = es
	}
	agree := 0.0
	first := true
	for name, es := range perEp {
		srv, ok := serverEp[name]
		if !ok {
			return sc, fmt.Errorf("self-validation: endpoint %s missing from server /status", name)
		}
		if cfg.addr == "" && srv.Requests != uint64(len(es.latMs)) {
			return sc, fmt.Errorf("self-validation: %s: server counted %d requests, client sent %d",
				name, srv.Requests, len(es.latMs))
		}
		if srv.P99Ms > sc.ServerP99Ms {
			sc.ServerP99Ms = srv.P99Ms
		}
		sort.Float64s(es.latMs)
		clientP99 := stats.SortedPercentile(es.latMs, 99)
		if gap := srv.P99Ms - clientP99; first || gap > agree {
			agree, first = gap, false
		}
		if srv.P99Ms > clientP99*cfg.agreeFac+cfg.agreeSlack {
			return sc, fmt.Errorf("self-validation: %s: server p99 %.2fms outside the agreement bound (client p99 %.2fms, factor %g, slack %gms)",
				name, srv.P99Ms, clientP99, cfg.agreeFac, cfg.agreeSlack)
		}
	}
	sc.P99AgreeMs = agree

	fmt.Fprintf(logw, "hetpapiload: %d requests in %.2fs = %.0f qps | p50 %.2fms p95 %.2fms p99 %.2fms max %.2fms | errors %.2f%% | %.0f allocs/op\n",
		sc.Requests, elapsed.Seconds(), sc.QPS, sc.P50Ms, sc.P95Ms, sc.P99Ms, sc.MaxMs, sc.ErrorPct, sc.AllocsPerOp)
	fmt.Fprintf(logw, "hetpapiload: server view: worst endpoint p99 %.2fms, p99 agreement gap %.2fms (bound: factor %g + %gms)\n",
		sc.ServerP99Ms, sc.P99AgreeMs, cfg.agreeFac, cfg.agreeSlack)
	if !cfg.quiet {
		names := make([]string, 0, len(perEp))
		for name := range perEp {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			es := perEp[name]
			fmt.Fprintf(logw, "hetpapiload:   %-14s %6d req  p50 %8.2fms  p99 %8.2fms  err %d\n",
				name, len(es.latMs), stats.SortedPercentile(es.latMs, 50), stats.SortedPercentile(es.latMs, 99), es.errors)
		}
	}

	if cfg.minQPS > 0 && sc.QPS < cfg.minQPS {
		return sc, fmt.Errorf("gate: %.0f qps below the %.0f floor", sc.QPS, cfg.minQPS)
	}
	if cfg.maxP99Ms > 0 && sc.P99Ms > cfg.maxP99Ms {
		return sc, fmt.Errorf("gate: p99 %.2fms above the %.0fms ceiling", sc.P99Ms, cfg.maxP99Ms)
	}
	if sc.ErrorPct > 0 {
		return sc, fmt.Errorf("gate: %.2f%% of requests failed", sc.ErrorPct)
	}
	return sc, nil
}
