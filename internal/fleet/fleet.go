// Package fleet scales the simulator from one machine to thousands: a
// deterministic weighted-template generator expands a seed and a template
// mix into N fully-specified scenario machines (staggered cold-starts,
// per-machine derived seeds, optional per-machine chaos plans), a bounded
// worker pool runs every machine's simulation to completion, and a
// roll-up pass aggregates the per-core-type counters, energy, degradation
// tallies and incidents of the whole fleet into one reproducible JSON
// report.
//
// Everything flows from the fleet seed. Per-machine quantities — the
// scheduler seed, the cold-start offset, whether the machine draws a
// chaos plan and which plan it draws — are derived with a splitmix64
// stream keyed on (fleet seed, stream id, machine index), so machine
// k's behavior never depends on how many machines surround it or on
// which worker runs it. The same (seed, config) pair therefore produces
// a byte-identical fleet report at any worker count, which is the
// property the determinism sweep in run_test.go pins.
package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"hetpapi/internal/faults"
	"hetpapi/internal/hw"
	"hetpapi/internal/scenario"
	"hetpapi/internal/workload"
)

// Stream ids for the per-machine splitmix64 derivations. Each consumer
// of fleet randomness owns one stream so adding a new derived quantity
// never shifts the values of the existing ones.
const (
	streamAssign = 0x41 // template-assignment shuffle
	streamSched  = 0x53 // per-machine scheduler seed
	streamStart  = 0x43 // cold-start stagger offset
	streamChaos  = 0x58 // chaos gate + plan seed
)

// splitmix64 is the 64-bit finalizing mixer of Steele et al.'s
// SplitMix64, used here as a keyed hash: it turns (seed, stream, index)
// into an independent, well-distributed 64-bit value without any
// sequential RNG state to share between machines.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// derive produces the per-machine 64-bit value of one stream.
func derive(fleetSeed int64, stream uint64, index int) uint64 {
	return splitmix64(splitmix64(uint64(fleetSeed)^stream<<56) + uint64(index))
}

// deriveSeed is derive clamped into the positive int64 range the
// subsystem seeds expect.
func deriveSeed(fleetSeed int64, stream uint64, index int) int64 {
	return int64(derive(fleetSeed, stream, index) >> 1)
}

// deriveUnit maps one stream value onto [0, 1).
func deriveUnit(fleetSeed int64, stream uint64, index int) float64 {
	return float64(derive(fleetSeed, stream, index)>>11) / (1 << 53)
}

// Template is one weighted machine archetype of a fleet: a prototype
// scenario.Spec (machine model, workload mix, injections, measurement
// probe) plus its relative frequency in the generated population.
type Template struct {
	// Name labels the template in machine ids and the report.
	Name string
	// Weight is the template's relative frequency (must be positive).
	Weight int
	// Spec is the prototype scenario. It is cloned per generated
	// machine; per-run stateful fields (Invariants, StepHooks, Tracer,
	// Stop) must be nil, and Sched.Seed must be unset so the derived
	// per-machine seed takes effect.
	Spec scenario.Spec
}

// GenConfig parameterizes fleet generation.
type GenConfig struct {
	// Machines is the fleet size N.
	Machines int
	// Seed is the fleet seed every per-machine quantity derives from.
	Seed int64
	// Templates is the weighted mix; nil selects DefaultTemplates().
	Templates []Template
	// StaggerSec spreads machine cold-starts over [0, StaggerSec):
	// machine k's workloads (and measurement probe) start at a derived
	// offset inside the window, modeling a fleet that boots in waves
	// instead of in lockstep. 0 disables staggering.
	StaggerSec float64
	// Chaos, when non-nil, derives per-machine fault plans; see
	// ChaosConfig.
	Chaos *ChaosConfig
	// MaxSecondsOverride, when positive, replaces every template's
	// MaxSeconds bound (the CLI's -max-seconds knob).
	MaxSecondsOverride float64
}

// MachineSpec is one generated machine, ready to run.
type MachineSpec struct {
	// ID is the fleet-unique machine id ("m0042").
	ID string
	// Index is the machine's position in the fleet (the derivation key).
	Index int
	// Template names the template the machine was expanded from.
	Template string
	// Seed is the derived scheduler seed.
	Seed int64
	// StartOffsetSec is the derived cold-start offset.
	StartOffsetSec float64
	// Spec is the machine's fully-resolved scenario (cloned, renamed,
	// seeded, staggered). The runner clones it again per run so a Fleet
	// can be executed multiple times.
	Spec scenario.Spec
	// ChaosSeed and ChaosProfile define the machine's fault plan
	// (faults.Random(ChaosSeed, *ChaosProfile)); ChaosProfile is nil on
	// machines the chaos gate spared.
	ChaosSeed    int64
	ChaosProfile *faults.Profile
}

// Fleet is a generated machine population plus the config that produced
// it.
type Fleet struct {
	Config   GenConfig
	Machines []MachineSpec
	// Counts holds the per-template machine counts, in template order.
	Counts []int
}

// DefaultTemplates returns the built-in template mix: one archetype per
// machine family, each small enough that thousand-machine fleets stay
// inside an ordinary run. The hybrid templates keep the paper's P-vs-E
// asymmetry load-bearing; the big.LITTLE template carries a PAPI
// measurement probe so chaos plans exercise the degradation ladder.
func DefaultTemplates() []Template {
	return []Template{
		{
			Name:   "raptor-hpl",
			Weight: 4,
			Spec: scenario.Spec{
				Machine:         "raptorlake",
				MaxSeconds:      4,
				SamplePeriodSec: 0.5,
				Workloads: []scenario.WorkloadSpec{{
					Kind:     scenario.WorkloadHPL,
					Name:     "hpl",
					CPUs:     []int{0, 2, 4, 6},
					N:        2048,
					NB:       128,
					Strategy: workload.OpenBLASx86(),
					Seed:     1,
				}},
			},
		},
		{
			Name:   "biglittle-measure",
			Weight: 3,
			Spec: scenario.Spec{
				Machine:         "orangepi800",
				MaxSeconds:      4,
				SamplePeriodSec: 0.5,
				Workloads: []scenario.WorkloadSpec{{
					Kind:        scenario.WorkloadLoop,
					Name:        "little-loop",
					CPUs:        []int{0, 1},
					InstrPerRep: 1e6,
					Reps:        1500,
				}},
				Measure: &scenario.MeasureSpec{
					Workload: 0,
					Events:   []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"},
				},
			},
		},
		{
			Name:   "homogeneous-stream",
			Weight: 2,
			Spec: scenario.Spec{
				Machine:         "homogeneous",
				MaxSeconds:      4,
				SamplePeriodSec: 0.5,
				Workloads: []scenario.WorkloadSpec{
					{Kind: scenario.WorkloadStream, Name: "stream", CPUs: []int{0, 1},
						Instructions: 1.5e9, LLCMissRate: 0.3, Seed: 2},
					{Kind: scenario.WorkloadSpin, Name: "spin", CPUs: []int{2}, Seconds: 1},
				},
			},
		},
	}
}

// validateTemplate rejects prototypes whose per-run state would alias
// between fleet machines, and resolves the machine model early so bad
// template names fail at generation time, not mid-run.
func validateTemplate(i int, t Template) (*hw.Machine, error) {
	if t.Name == "" {
		return nil, fmt.Errorf("fleet: template %d has no name", i)
	}
	if t.Weight <= 0 {
		return nil, fmt.Errorf("fleet: template %q has non-positive weight %d", t.Name, t.Weight)
	}
	s := &t.Spec
	if s.Invariants != nil {
		return nil, fmt.Errorf("fleet: template %q carries Invariants (per-run state; leave nil so each machine builds a fresh set)", t.Name)
	}
	if len(s.StepHooks) != 0 || s.Tracer != nil || s.Stop != nil {
		return nil, fmt.Errorf("fleet: template %q carries per-run hooks (StepHooks/Tracer/Stop must be nil)", t.Name)
	}
	if s.Sched != nil && s.Sched.Seed != 0 {
		return nil, fmt.Errorf("fleet: template %q pins Sched.Seed; it would override the derived per-machine seed", t.Name)
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("fleet: template %q has no workloads", t.Name)
	}
	mk := s.MachineFn
	if mk == nil {
		var ok bool
		mk, ok = scenario.Machines[s.Machine]
		if !ok {
			return nil, fmt.Errorf("fleet: template %q names unknown machine %q", t.Name, s.Machine)
		}
	}
	m := mk()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: template %q: %w", t.Name, err)
	}
	return m, nil
}

// apportion splits n machines across the template weights with the
// largest-remainder method: every template gets floor(n*w/W), and the
// leftover machines go to the largest fractional remainders (ties to the
// earlier template). The counts always sum exactly to n.
func apportion(n int, templates []Template) []int {
	totalW := 0
	for _, t := range templates {
		totalW += t.Weight
	}
	counts := make([]int, len(templates))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(templates))
	assigned := 0
	for i, t := range templates {
		exact := float64(n) * float64(t.Weight) / float64(totalW)
		counts[i] = int(math.Floor(exact))
		assigned += counts[i]
		rems[i] = rem{idx: i, frac: exact - math.Floor(exact)}
	}
	// Stable selection sort by descending remainder keeps ties in
	// template order without pulling in sort for a handful of entries.
	for assigned < n {
		best := -1
		for i := range rems {
			if rems[i].idx < 0 {
				continue
			}
			if best < 0 || rems[i].frac > rems[best].frac {
				best = i
			}
		}
		counts[rems[best].idx]++
		rems[best].idx = -1
		assigned++
	}
	return counts
}

// Generate expands the config into a fully-specified fleet. The same
// config always produces the identical fleet, machine by machine.
func Generate(cfg GenConfig) (*Fleet, error) {
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("fleet: machine count %d must be positive", cfg.Machines)
	}
	templates := cfg.Templates
	if templates == nil {
		templates = DefaultTemplates()
	}
	if len(templates) == 0 {
		return nil, fmt.Errorf("fleet: no templates")
	}
	models := make([]*hw.Machine, len(templates))
	for i, t := range templates {
		m, err := validateTemplate(i, t)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	if cfg.StaggerSec < 0 || math.IsNaN(cfg.StaggerSec) || math.IsInf(cfg.StaggerSec, 0) {
		return nil, fmt.Errorf("fleet: invalid stagger window %v", cfg.StaggerSec)
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.validate(); err != nil {
			return nil, err
		}
	}

	counts := apportion(cfg.Machines, templates)
	// Deal the template indices out in blocks, then shuffle with a
	// derived RNG so the mix interleaves deterministically.
	tplOf := make([]int, 0, cfg.Machines)
	for ti, c := range counts {
		for k := 0; k < c; k++ {
			tplOf = append(tplOf, ti)
		}
	}
	shuffleRng := rand.New(rand.NewSource(deriveSeed(cfg.Seed, streamAssign, 0)))
	shuffleRng.Shuffle(len(tplOf), func(i, j int) { tplOf[i], tplOf[j] = tplOf[j], tplOf[i] })

	f := &Fleet{Config: cfg, Counts: counts, Machines: make([]MachineSpec, cfg.Machines)}
	for i := 0; i < cfg.Machines; i++ {
		ti := tplOf[i]
		tpl := &templates[ti]
		spec := tpl.Spec.Clone()
		ms := &f.Machines[i]
		ms.ID = fmt.Sprintf("m%04d", i)
		ms.Index = i
		ms.Template = tpl.Name
		ms.Seed = deriveSeed(cfg.Seed, streamSched, i)
		spec.Name = ms.ID + "-" + tpl.Name
		spec.Seed = ms.Seed
		if cfg.MaxSecondsOverride > 0 {
			spec.MaxSeconds = cfg.MaxSecondsOverride
		}
		if cfg.StaggerSec > 0 {
			ms.StartOffsetSec = deriveUnit(cfg.Seed, streamStart, i) * cfg.StaggerSec
			for w := range spec.Workloads {
				spec.Workloads[w].StartSec += ms.StartOffsetSec
			}
			if spec.Measure != nil {
				spec.Measure.StartSec += ms.StartOffsetSec
			}
			if spec.MaxSeconds > 0 {
				// Late starters keep their full run window.
				spec.MaxSeconds += ms.StartOffsetSec
			}
		}
		if cfg.Chaos != nil {
			gate := deriveUnit(cfg.Seed, streamChaos, 2*i)
			if gate < cfg.Chaos.IncidentRate {
				ms.ChaosSeed = deriveSeed(cfg.Seed, streamChaos, 2*i+1)
				p := cfg.Chaos.profileFor(models[ti], &spec)
				ms.ChaosProfile = &p
			}
		}
		ms.Spec = spec
	}
	return f, nil
}
