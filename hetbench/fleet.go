package main

import (
	"context"
	"slices"
	"time"

	"hetpapi/internal/faults"
	"hetpapi/internal/fleet"
	"hetpapi/internal/scenario"
	"hetpapi/internal/stats"
	"hetpapi/internal/telemetry"
)

// fleetMachines is the fleet-stream fleet size: one fleet.Run of it is
// one measured batch.
const fleetMachines = 256

// streamFleetConfig is hetpapid's default fleet path: the default
// templates, a 0.5 s cold-start stagger and chaos plans on a quarter of
// the machines.
func streamFleetConfig(seed int64) fleet.GenConfig {
	return fleet.GenConfig{
		Machines:   fleetMachines,
		Seed:       seed,
		StaggerSec: 0.5,
		Chaos:      &fleet.ChaosConfig{IncidentRate: 0.25},
	}
}

// daemonStore is a store with hetpapid's default settings.
func daemonStore() *telemetry.Store {
	return telemetry.NewStore(telemetry.Config{Capacity: 4096, Downsample: 4, Shards: 8})
}

// fleetRun is one checked, streamed fleet.Run.
type fleetRun struct {
	rep      *fleet.Report
	streamer *fleet.Streamer
	wallSec  float64
	digests  map[string]string // machine id -> behavioral digest
	failures int64
}

// runFleet runs f on nproc workers, streaming into store with every
// sample time offset by baseSec.
func runFleet(b *bench, f *fleet.Fleet, store *telemetry.Store, baseSec float64, anomaly *fleet.AnomalyConfig) (fleetRun, error) {
	r := fleetRun{streamer: fleet.NewStreamer(store, 0), digests: map[string]string{}}
	r.streamer.SetBaseSec(baseSec)
	rc := fleet.RunConfig{
		Streamer:  r.streamer,
		Anomaly:   anomaly,
		OnMachine: func(mr fleet.MachineResult) { r.digests[mr.ID] = mr.Digest },
	}
	t0 := time.Now()
	rep, err := fleet.Run(context.Background(), f, rc)
	r.wallSec = time.Since(t0).Seconds()
	b.span("fleet", "run", t0)
	if err != nil {
		return r, err
	}
	r.rep = rep
	for _, mr := range rep.Results {
		if mr.Panicked || mr.Error != "" || !mr.Completed || len(mr.Violations) > 0 {
			r.failures++
			b.fail("fleet machine %s (%s): completed=%v panicked=%v error=%q violations=%v",
				mr.ID, mr.Template, mr.Completed, mr.Panicked, mr.Error, mr.Violations)
		}
	}
	b.check(len(rep.Results) == len(f.Machines), "fleet report has %d of %d machines", len(rep.Results), len(f.Machines))
	return r, nil
}

// heapRounds is how many fleet-stream runs the heap peak covers. The
// store grows with every run, so a fixed count keeps heap_peak_mb
// independent of how many runs fit in --seconds.
const heapRounds = 16

// runFleetStream measures the end-to-end figures over repeated streamed
// runs of one seeded fleet: set-up (generation and store), the heap peak
// over the first heapRounds runs, and, from the fastest run (see bestOf),
// summed machine-simulated seconds per host second and the host ms one
// fleet run takes. As in hetpapid's loop mode, every run streams into the
// same store, each after the previous run's last sample.
func runFleetStream(b *bench) error {
	setup, err := setups(func() error {
		_, err := fleet.Generate(streamFleetConfig(b.cfg.seed))
		daemonStore()
		return err
	})
	if err != nil {
		return err
	}
	b.set("setup_s", setup)
	f, err := fleet.Generate(streamFleetConfig(b.cfg.seed))
	if err != nil {
		return err
	}
	store := daemonStore()

	heap := startHeapSampler()
	heapMB := 0.0
	defer func() {
		if heapMB == 0 {
			heap.stopMB()
		}
	}()
	deadline := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	var first *fleet.Report
	var rates, roundMs []float64
	base := 0.0
	for len(rates) < heapRounds || time.Now().Before(deadline) {
		r, err := runFleet(b, f, store, base, &fleet.AnomalyConfig{Threshold: 4})
		if err != nil {
			return err
		}
		base = r.streamer.MaxSec() + 1
		if first == nil {
			first = r.rep
		}
		// Anomalies are scored over everything the store holds, so only
		// the machines' own outcomes repeat from run to run.
		b.check(r.rep.Digest == first.Digest, "fleet run %d digest %s differs from run 0 %s",
			len(rates), short(r.rep.Digest), short(first.Digest))
		rates = append(rates, r.rep.MachineSimSec/r.wallSec)
		roundMs = append(roundMs, r.wallSec*1e3)
		b.count(int64(len(f.Machines)), r.failures)
		if len(rates) == heapRounds {
			heapMB = heap.stopMB()
		}
	}
	b.set("heap_peak_mb", heapMB)
	bestMs := slices.Min(roundMs)
	b.set("throughput", first.MachineSimSec/(bestMs/1e3))
	b.set("latency_ms", bestMs)
	b.note("%d runs of %d machines (%d chaos, %d anomalies in the first), %.1f machine-sim-s each, digest %s",
		len(rates), first.Machines, first.ChaosMachines, len(first.Anomalies), first.MachineSimSec, short(first.Digest))
	b.note("host ms per run: best %.1f, median %.1f; machine-sim-s/wall-s per run %.0f",
		bestMs, stats.Median(roundMs), rates)
	return nil
}

// traceFleetStream runs the fleet once streamed (the store, streamer and
// anomaly figures, and every machine's reference digest), then replays
// it machine by machine untraced and traced.
func traceFleetStream(b *bench) error {
	f, err := fleet.Generate(streamFleetConfig(b.cfg.seed))
	if err != nil {
		return err
	}
	store := daemonStore()
	anomaly := fleet.AnomalyConfig{Threshold: 4}
	r, err := runFleet(b, f, store, 0, &anomaly)
	if err != nil {
		return err
	}
	b.count(int64(len(f.Machines)), r.failures)
	streamLayers(b, r.streamer, store, f, anomaly)
	deadline := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	return replayLayers(b, f, r.digests, deadline, 1001)
}

// streamLayers records the streamer's own cost (its public
// SelfOverhead gauges), the anomaly detector's, and direct drives of the
// store's write and read paths with the serving schedule's arguments.
func streamLayers(b *bench, st *fleet.Streamer, store *telemetry.Store, f *fleet.Fleet, anomaly fleet.AnomalyConfig) {
	o := st.SelfOverhead()
	b.set("fleet.stream_ns_per_point", o.NsPerPoint)
	b.set("fleet.stream_points", float64(o.Points))

	var anomalyMs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fleet.DetectAnomalies(store, f, anomaly)
		anomalyMs = append(anomalyMs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	b.set("fleet.anomaly_ms", stats.Median(anomalyMs))

	// Writes go to a fresh store so the workload's own store is untouched.
	const appends = 100000
	fresh := daemonStore()
	key := telemetry.Key{Machine: "append", Series: "power_w"}
	t0 := time.Now()
	for i := 0; i < appends; i++ {
		fresh.Append(key, float64(i)*0.001, float64(i%97))
	}
	b.set("telemetry.append_ns", float64(time.Since(t0).Nanoseconds())/appends)

	timeCall := func(reps int, fn func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(reps) / 1e3
	}
	ids := make([]string, len(f.Machines))
	for i, ms := range f.Machines {
		ids[i] = ms.ID
	}
	b.set("telemetry.fleet_query_us", timeCall(50, func(int) {
		_, _ = store.FleetQuery(telemetry.FleetQueryRequest{Rung: telemetry.Rung10s, FromSec: -1, ToSec: -1})
	}))
	b.set("telemetry.aggregate_us", timeCall(2000, func(i int) {
		store.Aggregate(telemetry.Key{Machine: ids[i%len(ids)], Series: "power_w"})
	}))
	b.set("telemetry.snapshot_us", timeCall(2000, func(i int) {
		store.Snapshot(telemetry.Key{Machine: ids[i%len(ids)], Series: "power_w"})
	}))
}

// replayLayers replays every machine of f through Spec.Clone,
// scenario.Boot and scenario.RunOn with its chaos plan re-attached,
// alternating untraced rounds with rounds under the tick split until the
// deadline has passed and at least minMachines traced replays are done.
// Every replay must reproduce the digest fleet.Run gave that machine.
func replayLayers(b *bench, f *fleet.Fleet, want map[string]string, deadline time.Time, minMachines int) error {
	ac := newAllocCounter()
	var cloneNs, bootNs, accountedNs int64
	var runAllocs uint64
	var machineMs []float64
	replay := func(ms *fleet.MachineSpec, split *tickSplit) error {
		m0 := time.Now()
		spec := ms.Spec.Clone()
		if ms.ChaosProfile != nil {
			plan := faults.Random(ms.ChaosSeed, *ms.ChaosProfile)
			attached := false
			spec.StepHooks = append(spec.StepHooks, func(c *scenario.Context) {
				if !attached {
					c.Sim.Kernel.AttachFaults(plan)
					attached = true
				}
			})
		}
		m1 := b.span("fleet", "clone", m0)
		s, err := scenario.Boot(spec)
		if err != nil {
			return err
		}
		m2 := b.span("scenario", "boot", m1)
		detach := func() {}
		if split != nil {
			spec, detach = split.attach(s, spec)
		}
		a0, _ := ac.read()
		res, err := scenario.RunOn(s, spec)
		a1, _ := ac.read()
		detach()
		m3 := b.span("scenario", "run", m2)
		if res == nil {
			return err
		}
		b.check(res.Digest == want[ms.ID], "replay of %s digests %s, fleet.Run gave %s",
			ms.ID, short(res.Digest), short(want[ms.ID]))
		b.count(1, int64(len(res.Violations)))
		if split != nil {
			cloneNs += m1.Sub(m0).Nanoseconds()
			bootNs += m2.Sub(m1).Nanoseconds()
			accountedNs += m3.Sub(m0).Nanoseconds()
			runAllocs += a1 - a0
			machineMs = append(machineMs, float64(m3.Sub(m0).Nanoseconds())/1e6)
		}
		return nil
	}
	split := newTickSplit()
	var plainSec, tracedSec float64
	var o0, o1, kb0, kb1 uint64
	for len(machineMs) < minMachines || time.Now().Before(deadline) {
		for _, traced := range []bool{false, true} {
			var sp *tickSplit
			if traced {
				sp = split
			}
			oa, kba := ac.read()
			t0 := time.Now()
			for i := range f.Machines {
				if err := replay(&f.Machines[i], sp); err != nil {
					return err
				}
			}
			sec := time.Since(t0).Seconds()
			ob, kbb := ac.read()
			if traced {
				tracedSec += sec
				o0, o1, kb0, kb1 = o0+oa, o1+ob, kb0+kba, kb1+kbb
			} else {
				plainSec += sec
			}
		}
	}
	n := float64(len(machineMs))
	split.report(b, runAllocs)
	b.set("fleet.clone_us", float64(cloneNs)/n/1e3)
	b.set("scenario.boot_ms", float64(bootNs)/n/1e6)
	b.setPercentile("fleet.machine_ms.p50", machineMs, 50)
	b.setPercentile("fleet.machine_ms.p99", machineMs, 99)
	b.set("fleet.allocs_per_machine", float64(o1-o0)/n)
	b.set("fleet.alloc_kb_per_machine", float64(kb1-kb0)/n/1024)
	closure := float64(accountedNs) / 1e9 / tracedSec * 100
	b.set("fleet.replay_closure_pct", closure)
	b.check(closure >= 95, "clone+boot+run account for %.1f%% of the replay, want >= 95%%", closure)
	// Rounds alternate, so both sides replayed the same machines.
	b.set("trace.overhead_pct", (tracedSec/plainSec-1)*100)
	b.note("replayed %d machines: traced %.3fs vs untraced %.3fs wall, closure %.2f%%",
		len(machineMs), tracedSec, plainSec, closure)

	for i := range f.Machines {
		if f.Machines[i].Spec.Measure != nil {
			t0 := time.Now()
			// Ten ticks after the probe's start: the machine is running.
			drive, err := driveKernel(f.Machines[i].Spec, f.Machines[i].StartOffsetSec+0.01)
			if err != nil {
				return err
			}
			b.span("perfevent", "drive", t0)
			drive.report(b)
			break
		}
	}
	return nil
}
