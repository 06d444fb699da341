package telemetry

import (
	"sync/atomic"
	"time"

	"hetpapi/internal/power"
	"hetpapi/internal/scenario"
	"hetpapi/internal/trace"
)

// Streamer is the one step-hook sampler that feeds the store: every
// machine, a fleet member or one of hetpapid's reference scenarios, gets
// a hook (HookFor) that samples its post-tick state on the monitoring
// cadence and appends the series under the machine's id, tagged (via
// Store.SetMeta) with its template and machine model so population
// queries can group by either.
//
// A hook samples in one of two forms, fixed by its call site:
//
//   - the population form (fleet.Run): the machine scalars (power_w,
//     energy_j, temp_c, wall_w), per-core-type counter totals
//     (type/<core-type>/<kind>) rather than one series per CPU, so a
//     1,000-machine run fits one store, and the degradation tallies when
//     the machine carries a PAPI probe;
//   - the per-CPU form (hetpapid's reference machines): the same scalars
//     and tallies, plus per-CPU frequency under the trace CSV column
//     names (cpuN_mhz), one counter series per CPU, core type and kind
//     (cpuN/<type>/<kind>) and the probe's measure/<event>/<field> values.
//
// Per-series writes happen from exactly one machine's goroutine at
// deterministic simulated times with deterministic values, so the
// store's rung contents are a pure function of (seed, config) even
// though machines ingest concurrently.
//
// The streamer accounts for its own cost (Diamond et al.: a monitor
// must measure itself): every sampling pass adds its wall-clock time and
// appended-point count to atomic gauges, surfaced in SelfOverhead
// snapshots and exported on demand as selfoverhead/* series under the
// reserved machine id "fleet". The gauges are wall-clock and so live
// strictly outside any deterministic report.
type Streamer struct {
	store *Store
	// periodSec overrides the per-spec monitoring cadence when > 0.
	periodSec float64
	// baseSec offsets every sample's time axis: loop mode reruns
	// machines onto the same ids, so each round must land after the
	// previous round's last sample to keep per-series times monotonic
	// (see SetBaseSec / MaxSec).
	baseSec float64

	points   atomic.Int64
	samples  atomic.Int64
	ingestNs atomic.Int64
	machines atomic.Int64
	maxNs    atomic.Int64
}

// OverheadMachine is the reserved machine id the streamer's
// self-overhead series are filed under.
const OverheadMachine = "fleet"

// NewStreamer builds a streamer feeding the store. periodSec sets the
// sampling cadence in simulated seconds; <= 0 uses each spec's
// SamplePeriodSec (or the paper's 1 Hz when that is unset too).
func NewStreamer(store *Store, periodSec float64) *Streamer {
	return &Streamer{store: store, periodSec: periodSec}
}

// Store returns the telemetry store the streamer feeds.
func (st *Streamer) Store() *Store { return st.store }

// SetBaseSec shifts the streamer's time axis: every sample lands at
// base + machine sim time. Call between rounds (before the round's hooks
// are built) with a value past the previous round's last sample.
func (st *Streamer) SetBaseSec(base float64) { st.baseSec = base }

// MaxSec returns the latest (offset) sample time any machine reached.
func (st *Streamer) MaxSec() float64 { return float64(st.maxNs.Load()) / 1e9 }

// OnSample returns a step hook that calls fn on the spec's sample ticks,
// with the tick's time on the streamer's axis (base + sim time). The
// cadence is the one rule every streamed series follows: sample the
// first tick, then every period of simulated time, never twice in one
// tick.
func (st *Streamer) OnSample(spec *scenario.Spec, fn func(ctx *scenario.Context, tSec float64)) scenario.StepHook {
	period := st.periodSec
	if period <= 0 {
		period = spec.SamplePeriodSec
	}
	if period <= 0 {
		period = 1.0
	}
	base := st.baseSec
	next := -1.0
	return func(ctx *scenario.Context) {
		now := ctx.Sim.Now()
		if next < 0 {
			next = now // sample the first tick, then every period
		}
		if now < next {
			return
		}
		next += period
		if next <= now {
			// The cadence is coarser than the tick but must never fire
			// twice per tick; realign after a long stall.
			next = now + period
		}
		fn(ctx, base+now)
	}
}

// typeAcc accumulates one (core type, kind) counter total during a
// sample pass; kept in a slice so iteration order follows ctx.Wide.
type typeAcc struct {
	typeName string
	kind     string
	series   string
	sum      float64
	seen     bool
}

// sampler is one hook's sampling state; only the streamer's gauges and
// store are shared between hooks.
type sampler struct {
	store   *Store
	machine string
	perCPU  bool
	points  int64     // appended in the current pass
	accs    []typeAcc // population form
	freq    []string  // per-CPU form: cpuN_mhz names, by CPU
	wide    []string  // per-CPU form: counter names, by ctx.Wide slot
}

// HookFor builds the step hook that streams one machine under the given
// id, tagged with template and the spec's machine model. perCPU selects
// the per-CPU form over the population form. Each hook owns its sampling
// state; build a fresh one per run.
func (st *Streamer) HookFor(machine, template string, spec *scenario.Spec, perCPU bool) scenario.StepHook {
	st.machines.Add(1)
	st.store.SetMeta(machine, MachineMeta{Template: template, Model: spec.Machine})
	s := &sampler{store: st.store, machine: machine, perCPU: perCPU}
	return st.OnSample(spec, func(ctx *scenario.Context, now float64) {
		start := time.Now()
		for ns := int64(now * 1e9); ; {
			cur := st.maxNs.Load()
			if ns <= cur || st.maxNs.CompareAndSwap(cur, ns) {
				break
			}
		}
		s.points = 0
		s.sample(ctx, now)
		st.points.Add(s.points)
		st.samples.Add(1)
		st.ingestNs.Add(int64(time.Since(start)))
	})
}

// sample appends one pass of the hook's series at time now.
func (s *sampler) sample(ctx *scenario.Context, now float64) {
	sim := ctx.Sim
	s.add("power_w", now, sim.Power.PkgPowerW())
	s.add("energy_j", now, sim.Power.EnergyJ(power.DomainPkg))
	s.add("temp_c", now, sim.Thermal.TempC())
	s.add("wall_w", now, sim.Power.WallPowerW())
	if s.perCPU {
		s.perCPUCounters(ctx, now)
	} else {
		s.typeTotals(ctx, now)
	}
	if m := ctx.Measure; m != nil && len(m.LastValues) > 0 {
		if s.perCPU {
			for i, v := range m.LastValues {
				s.add(MeasureSeriesName(m.Names[i], "final"), now, float64(v.Final))
				s.add(MeasureSeriesName(m.Names[i], "error_bound"), now, float64(v.ErrorBound))
			}
		}
		r := m.Set.Degradations()
		for _, g := range [...]struct {
			name string
			v    int
		}{
			{"busy_retries", r.BusyRetries},
			{"deferred_starts", r.DeferredStarts},
			{"multiplex_fallback", r.MultiplexFallback},
			{"hotplug_rebuilds", r.HotplugRebuilds},
			{"stale_reads", r.StaleReads},
			{"degraded_reads", r.DegradedReads},
		} {
			s.add(DegradationSeriesName(g.name), now, float64(g.v))
		}
	}
}

func (s *sampler) add(series string, t, v float64) {
	s.store.Append(Key{Machine: s.machine, Series: series}, t, v)
	s.points++
}

// typeTotals appends the population form's per-core-type counter totals.
func (s *sampler) typeTotals(ctx *scenario.Context, now float64) {
	for i := range s.accs {
		s.accs[i].sum, s.accs[i].seen = 0, false
	}
	for _, we := range ctx.Wide {
		if we.Dead {
			continue
		}
		count, err := ctx.Sim.Kernel.Read(we.FD)
		if err != nil {
			continue
		}
		kind := we.Kind.String()
		idx := -1
		for i := range s.accs {
			if s.accs[i].typeName == we.TypeName && s.accs[i].kind == kind {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = len(s.accs)
			s.accs = append(s.accs, typeAcc{
				typeName: we.TypeName, kind: kind,
				series: TypeSeriesName(we.TypeName, kind),
			})
		}
		s.accs[idx].sum += float64(count.Value)
		s.accs[idx].seen = true
	}
	for i := range s.accs {
		if s.accs[i].seen {
			s.add(s.accs[i].series, now, s.accs[i].sum)
		}
	}
}

// perCPUCounters appends the per-CPU form's frequencies and counters.
func (s *sampler) perCPUCounters(ctx *scenario.Context, now float64) {
	sim := ctx.Sim
	if s.freq == nil {
		ncpu := sim.HW.NumCPUs()
		s.freq = trace.ColumnNames(ncpu)[1 : 1+ncpu]
		s.wide = make([]string, len(ctx.Wide))
	}
	for cpu, name := range s.freq {
		s.add(name, now, sim.CurFreqMHz(cpu))
	}
	for i, we := range ctx.Wide {
		if we.Dead {
			continue // CPU hotplugged off; the series resumes on reopen
		}
		count, err := sim.Kernel.Read(we.FD)
		if err != nil {
			continue
		}
		if s.wide[i] == "" {
			s.wide[i] = CounterSeriesName(we.CPU, we.TypeName, we.Kind.String())
		}
		s.add(s.wide[i], now, float64(count.Value))
	}
}

// SelfOverhead is a snapshot of the streamer's own measured cost.
type SelfOverhead struct {
	// Machines is the number of machine hooks installed; Samples the
	// sampling passes executed; Points the series points appended.
	Machines int64 `json:"machines"`
	Samples  int64 `json:"samples"`
	Points   int64 `json:"points"`
	// IngestSec is the summed wall-clock time spent inside hooks;
	// NsPerPoint and PointsPerSec derive from it.
	IngestSec    float64 `json:"ingest_sec"`
	NsPerPoint   float64 `json:"ns_per_point"`
	PointsPerSec float64 `json:"points_per_sec"`
	// Rejected is the store's count of non-finite samples dropped.
	Rejected int64 `json:"rejected"`
}

// SelfOverhead snapshots the streamer's cost gauges.
func (st *Streamer) SelfOverhead() SelfOverhead {
	o := SelfOverhead{
		Machines:  st.machines.Load(),
		Samples:   st.samples.Load(),
		Points:    st.points.Load(),
		IngestSec: float64(st.ingestNs.Load()) / 1e9,
		Rejected:  st.store.Rejected(),
	}
	if o.Points > 0 && o.IngestSec > 0 {
		o.NsPerPoint = o.IngestSec * 1e9 / float64(o.Points)
		o.PointsPerSec = float64(o.Points) / o.IngestSec
	}
	return o
}

// ExportOverhead appends the current self-overhead gauges as
// selfoverhead/* series under the reserved "fleet" machine id at time
// tSec (callers use the fleet round number, one export per round).
// These series are wall-clock measurements: they live in the store for
// dashboards and /fleet/query, never in a deterministic report.
func (st *Streamer) ExportOverhead(tSec float64) SelfOverhead {
	o := st.SelfOverhead()
	for _, g := range [...]struct {
		name string
		v    float64
	}{
		{"selfoverhead/points", float64(o.Points)},
		{"selfoverhead/samples", float64(o.Samples)},
		{"selfoverhead/ingest_ms", o.IngestSec * 1e3},
		{"selfoverhead/ns_per_point", o.NsPerPoint},
		{"selfoverhead/points_per_s", o.PointsPerSec},
		{"selfoverhead/rejected", float64(o.Rejected)},
	} {
		st.store.Append(Key{Machine: OverheadMachine, Series: g.name}, tSec, g.v)
	}
	return o
}
