package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"hetpapi/internal/core"
	"hetpapi/internal/faults"
	"hetpapi/internal/scenario"
	"hetpapi/internal/telemetry"
)

// Streamer is telemetry.Streamer, the repo's one step-hook sampler. The
// alias stays only because hetbench names fleet.Streamer; repo code uses
// telemetry.Streamer.
type Streamer = telemetry.Streamer

// NewStreamer is telemetry.NewStreamer. It stays only because hetbench
// calls fleet.NewStreamer; repo code calls telemetry.NewStreamer.
func NewStreamer(store *telemetry.Store, periodSec float64) *Streamer {
	return telemetry.NewStreamer(store, periodSec)
}

// RunConfig parameterizes fleet execution.
type RunConfig struct {
	// Workers bounds the worker pool (<=0 selects GOMAXPROCS). The
	// worker count affects only wall-clock time, never the report: each
	// machine's simulation is self-contained and results are rolled up
	// in machine-index order after the pool drains.
	Workers int
	// OnMachine, when set, is called with each finished machine's
	// result, serialized under an internal lock. Completion order is
	// scheduling-dependent; it is a progress feed, not part of the
	// deterministic output.
	OnMachine func(MachineResult)
	// Streamer, when set, streams every machine's live series into its
	// telemetry store in the population form (per-core-type counters,
	// machine scalars, degradations) as the fleet runs. Per-series
	// contents stay deterministic: each series is written by one
	// machine's goroutine at simulated times.
	Streamer *telemetry.Streamer
	// Anomaly, when set together with Streamer, runs the robust
	// z-score outlier detector over the streamed rung summaries after
	// the pool drains and embeds the (deterministic) result in the
	// report.
	Anomaly *AnomalyConfig
}

// MachineResult is one machine's run outcome, reduced to the figures
// the fleet roll-up aggregates.
type MachineResult struct {
	ID             string  `json:"id"`
	Template       string  `json:"template"`
	MachineModel   string  `json:"machine_model"`
	Seed           int64   `json:"seed"`
	StartOffsetSec float64 `json:"start_offset_sec"`

	// Completed: every workload finished. Stopped: cancelled mid-run.
	// Skipped: cancelled before starting. Panicked: the simulation
	// panicked (isolated to this machine; PanicMsg has the value).
	Completed bool   `json:"completed"`
	Stopped   bool   `json:"stopped"`
	Skipped   bool   `json:"skipped"`
	Panicked  bool   `json:"panicked"`
	PanicMsg  string `json:"panic_msg,omitempty"`
	Error     string `json:"error,omitempty"`

	ElapsedSec     float64                          `json:"elapsed_sec"`
	EnergyJ        float64                          `json:"energy_j"`
	Gflops         float64                          `json:"gflops"`
	WorkloadsDone  int                              `json:"workloads_done"`
	WorkloadsTotal int                              `json:"workloads_total"`
	ByType         map[string]scenario.TypeCounters `json:"by_type,omitempty"`
	Violations     []string                         `json:"violations,omitempty"`
	FaultTrace     []string                         `json:"fault_trace,omitempty"`
	Degradations   *core.DegradationReport          `json:"-"`
	Digest         string                           `json:"digest,omitempty"`
}

// Run executes every machine of the fleet on a bounded worker pool and
// rolls the results up into a Report. Cancelling the context stops
// in-flight machines at their next tick (Stopped) and skips machines
// not yet started (Skipped); Run still returns the partial report. A
// panic inside one machine's simulation is confined to that machine and
// recorded as an incident.
func Run(ctx context.Context, f *Fleet, rc RunConfig) (*Report, error) {
	if f == nil || len(f.Machines) == 0 {
		return nil, fmt.Errorf("fleet: nothing to run")
	}
	workers := rc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(f.Machines) {
		workers = len(f.Machines)
	}

	results := make([]MachineResult, len(f.Machines))
	indices := make(chan int)
	var wg sync.WaitGroup
	var cbMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				results[i] = runMachine(ctx, &f.Machines[i], rc.Streamer)
				if rc.OnMachine != nil {
					cbMu.Lock()
					rc.OnMachine(results[i])
					cbMu.Unlock()
				}
			}
		}()
	}
	for i := range f.Machines {
		indices <- i
	}
	close(indices)
	wg.Wait()

	rep := buildReport(f, results)
	if rc.Streamer != nil && rc.Anomaly != nil {
		rep.attachAnomalies(DetectAnomalies(rc.Streamer.Store(), f, *rc.Anomaly))
	}
	return rep, nil
}

// runMachine runs one machine's simulation start to finish, translating
// panics into a result instead of letting them take down the pool. When
// a streamer is attached, its sampling hook rides along after the
// machine's own hooks.
func runMachine(ctx context.Context, ms *MachineSpec, streamer *telemetry.Streamer) (mr MachineResult) {
	mr = MachineResult{
		ID:             ms.ID,
		Template:       ms.Template,
		Seed:           ms.Seed,
		StartOffsetSec: ms.StartOffsetSec,
		WorkloadsTotal: len(ms.Spec.Workloads),
	}
	defer func() {
		if r := recover(); r != nil {
			mr.Panicked = true
			mr.PanicMsg = fmt.Sprint(r)
		}
	}()
	if ctx.Err() != nil {
		mr.Skipped = true
		return mr
	}

	// Clone again so a Fleet can be Run repeatedly: the per-run hooks
	// appended below must not accumulate on the generated spec.
	spec := ms.Spec.Clone()
	var plan *faults.Plan
	if ms.ChaosProfile != nil {
		plan = faults.Random(ms.ChaosSeed, *ms.ChaosProfile)
		attached := false
		spec.StepHooks = append(spec.StepHooks, func(c *scenario.Context) {
			if !attached {
				c.Sim.Kernel.AttachFaults(plan)
				attached = true
			}
		})
	}
	if streamer != nil {
		spec.StepHooks = append(spec.StepHooks, streamer.HookFor(ms.ID, ms.Template, &spec, false))
	}
	spec.Stop = func() bool { return ctx.Err() != nil }

	res, err := scenario.Run(spec)
	if res == nil {
		mr.Error = err.Error()
		return mr
	}
	mr.MachineModel = res.MachineName
	mr.Completed = res.Completed
	mr.Stopped = res.Stopped
	mr.ElapsedSec = res.ElapsedSec
	mr.EnergyJ = res.EnergyJ
	mr.ByType = res.ByType
	mr.Degradations = res.Degradations
	mr.Digest = res.Digest
	for _, w := range res.Workloads {
		if w.Done {
			mr.WorkloadsDone++
		}
		mr.Gflops += w.Gflops
	}
	for _, v := range res.Violations {
		mr.Violations = append(mr.Violations, v.String())
	}
	if plan != nil {
		mr.FaultTrace = plan.Trace()
	}
	return mr
}
