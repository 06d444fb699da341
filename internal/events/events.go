// Package events holds the native performance event database for every
// simulated PMU, playing the role that the per-microarchitecture event
// tables play inside libpfm4 and the kernel.
//
// Each PMU model (adl_glc, adl_grt, arm_cortex_a72, arm_cortex_a53, skl,
// rapl) exposes a list of event definitions. An event optionally carries
// unit masks. Every event or unit mask resolves to a Kind — the underlying
// architectural quantity — plus a Scale factor, so e.g.
// BR_INST_RETIRED:COND counts a calibrated fraction of all retired
// branches. The perf_event kernel layer (internal/perfevent) decodes a raw
// config back to (Kind, Scale) with PMU.Decode and credits counters from the
// Stats records produced by executing workloads.
package events

import (
	"fmt"
	"sort"
)

// Kind identifies the architectural quantity an event counts.
type Kind int

const (
	// KindNone marks an invalid or unmapped event.
	KindNone Kind = iota
	// KindInstructions counts retired instructions.
	KindInstructions
	// KindCycles counts unhalted core cycles at the current frequency.
	KindCycles
	// KindRefCycles counts reference (TSC-rate) unhalted cycles.
	KindRefCycles
	// KindSlots counts pipeline issue slots (topdown; pipeline width x cycles).
	KindSlots
	// KindStallCycles counts execution stall cycles.
	KindStallCycles
	// KindBranches counts retired branch instructions.
	KindBranches
	// KindBranchMisses counts mispredicted retired branches.
	KindBranchMisses
	// KindLoads and KindStores count retired memory operations.
	KindLoads
	KindStores
	// KindMemAccess counts loads plus stores.
	KindMemAccess
	// KindL1DRefs / KindL1DMisses count level-1 data cache activity.
	KindL1DRefs
	KindL1DMisses
	// KindL2Refs / KindL2Misses count private level-2 cache activity.
	KindL2Refs
	KindL2Misses
	// KindLLCRefs / KindLLCMisses count shared last-level cache activity
	// (the quantities behind Table III of the paper).
	KindLLCRefs
	KindLLCMisses
	// KindLLCHits counts KindLLCRefs minus KindLLCMisses.
	KindLLCHits
	// KindFPScalarD counts scalar double-precision arithmetic instructions.
	KindFPScalarD
	// KindFP128D / KindFP256D count 128-bit / 256-bit packed
	// double-precision arithmetic instructions.
	KindFP128D
	KindFP256D
	// KindBusCycles counts bus (uncore clock) cycles.
	KindBusCycles
	// KindEnergyPkg, KindEnergyCores, KindEnergyRAM, KindEnergyPsys are
	// RAPL energy domains, in RAPL energy units. They are package-scope:
	// the kernel only allows them as CPU-wide events.
	KindEnergyPkg
	KindEnergyCores
	KindEnergyRAM
	KindEnergyPsys
	numKinds
)

var kindNames = map[Kind]string{
	KindNone:         "none",
	KindInstructions: "instructions",
	KindCycles:       "cycles",
	KindRefCycles:    "ref-cycles",
	KindSlots:        "slots",
	KindStallCycles:  "stall-cycles",
	KindBranches:     "branches",
	KindBranchMisses: "branch-misses",
	KindLoads:        "loads",
	KindStores:       "stores",
	KindMemAccess:    "mem-access",
	KindL1DRefs:      "l1d-refs",
	KindL1DMisses:    "l1d-misses",
	KindL2Refs:       "l2-refs",
	KindL2Misses:     "l2-misses",
	KindLLCRefs:      "llc-refs",
	KindLLCMisses:    "llc-misses",
	KindLLCHits:      "llc-hits",
	KindFPScalarD:    "fp-scalar-double",
	KindFP128D:       "fp-128b-double",
	KindFP256D:       "fp-256b-double",
	KindBusCycles:    "bus-cycles",
	KindEnergyPkg:    "energy-pkg",
	KindEnergyCores:  "energy-cores",
	KindEnergyRAM:    "energy-ram",
	KindEnergyPsys:   "energy-psys",
}

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	switch k {
	case KindSWCpuClock:
		return "sw-cpu-clock"
	case KindSWTaskClock:
		return "sw-task-clock"
	case KindSWPageFaults:
		return "sw-page-faults"
	case KindSWContextSwitches:
		return "sw-context-switches"
	case KindSWCpuMigrations:
		return "sw-cpu-migrations"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Energy reports whether the kind is a package-scope RAPL energy domain.
func (k Kind) Energy() bool {
	return k >= KindEnergyPkg && k <= KindEnergyPsys
}

// Stats is the bundle of architectural quantities produced by executing a
// slice of work on one core. Workload models emit Stats; the perf_event
// layer converts them to counter increments via ValueOf.
type Stats struct {
	Cycles       float64
	RefCycles    float64
	Instructions float64
	Branches     float64
	BranchMisses float64
	Loads        float64
	Stores       float64
	L1DRefs      float64
	L1DMisses    float64
	L2Refs       float64
	L2Misses     float64
	LLCRefs      float64
	LLCMisses    float64
	FPScalarD    float64
	FP128D       float64
	FP256D       float64
	StallCycles  float64
	Slots        float64
	// Flops is the retired double-precision FLOP count (not an event kind
	// by itself; FP_ARITH umask counts derive from the vector mix).
	Flops float64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cycles += other.Cycles
	s.RefCycles += other.RefCycles
	s.Instructions += other.Instructions
	s.Branches += other.Branches
	s.BranchMisses += other.BranchMisses
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.L1DRefs += other.L1DRefs
	s.L1DMisses += other.L1DMisses
	s.L2Refs += other.L2Refs
	s.L2Misses += other.L2Misses
	s.LLCRefs += other.LLCRefs
	s.LLCMisses += other.LLCMisses
	s.FPScalarD += other.FPScalarD
	s.FP128D += other.FP128D
	s.FP256D += other.FP256D
	s.StallCycles += other.StallCycles
	s.Slots += other.Slots
	s.Flops += other.Flops
}

// ValueOf returns the value of the given kind contained in the stats.
// Energy kinds always return 0 here; they are serviced by the power model,
// not by task execution. The stats are passed by pointer: the kernel calls
// this once per credited event per tick.
func ValueOf(s *Stats, k Kind) float64 {
	switch k {
	case KindInstructions:
		return s.Instructions
	case KindCycles:
		return s.Cycles
	case KindRefCycles:
		return s.RefCycles
	case KindSlots:
		return s.Slots
	case KindStallCycles:
		return s.StallCycles
	case KindBranches:
		return s.Branches
	case KindBranchMisses:
		return s.BranchMisses
	case KindLoads:
		return s.Loads
	case KindStores:
		return s.Stores
	case KindMemAccess:
		return s.Loads + s.Stores
	case KindL1DRefs:
		return s.L1DRefs
	case KindL1DMisses:
		return s.L1DMisses
	case KindL2Refs:
		return s.L2Refs
	case KindL2Misses:
		return s.L2Misses
	case KindLLCRefs:
		return s.LLCRefs
	case KindLLCMisses:
		return s.LLCMisses
	case KindLLCHits:
		return s.LLCRefs - s.LLCMisses
	case KindFPScalarD:
		return s.FPScalarD
	case KindFP128D:
		return s.FP128D
	case KindFP256D:
		return s.FP256D
	case KindBusCycles:
		return s.RefCycles
	default:
		return 0
	}
}

// Umask is one unit mask of an event.
type Umask struct {
	// Name is the umask name as it appears after the second colon in a
	// libpfm4-style event string, e.g. "ANY" in "adl_glc::INST_RETIRED:ANY".
	Name string
	// Bits is the unit mask bit pattern, encoded into the perf config.
	Bits uint64
	// Desc is the human-readable description.
	Desc string
	// Kind and Scale define the counted quantity: value = Scale *
	// ValueOf(stats, Kind).
	Kind  Kind
	Scale float64
	// Default marks the umask used when the event is named without one.
	Default bool
}

// Def is one native event of a PMU.
type Def struct {
	// Name is the event name, e.g. "INST_RETIRED".
	Name string
	// Code is the event select code, encoded in config bits 0-7.
	Code uint64
	// Desc is the human-readable description.
	Desc string
	// Kind and Scale apply when the event has no unit masks.
	Kind  Kind
	Scale float64
	// Umasks lists the unit masks, if any.
	Umasks []Umask
}

// Encode returns the perf config value for the event with the given umask
// bits: code in bits 0-7, umask in bits 8-15.
func Encode(code, umaskBits uint64) uint64 {
	return (code & 0xFF) | (umaskBits&0xFF)<<8
}

// DecodeParts splits a config into (code, umask bits).
func DecodeParts(config uint64) (code, umaskBits uint64) {
	return config & 0xFF, (config >> 8) & 0xFF
}

// PMU is the event table of one PMU model.
type PMU struct {
	// Name is the libpfm4-style PMU model name ("adl_glc").
	Name string
	// Desc is the human-readable PMU description.
	Desc string
	// Events lists every native event.
	Events []Def

	byName   map[string]*Def
	byConfig map[uint64]mapping
}

type mapping struct {
	kind  Kind
	scale float64
	name  string
}

func (p *PMU) index() {
	if p.byName != nil {
		return
	}
	p.byName = make(map[string]*Def, len(p.Events))
	p.byConfig = make(map[uint64]mapping)
	for i := range p.Events {
		d := &p.Events[i]
		p.byName[d.Name] = d
		if len(d.Umasks) == 0 {
			p.byConfig[Encode(d.Code, 0)] = mapping{d.Kind, scaleOr1(d.Scale), d.Name}
			continue
		}
		for _, u := range d.Umasks {
			cfg := Encode(d.Code, u.Bits)
			if _, dup := p.byConfig[cfg]; !dup {
				p.byConfig[cfg] = mapping{u.Kind, scaleOr1(u.Scale), d.Name + ":" + u.Name}
			}
		}
	}
}

func scaleOr1(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

// Lookup returns the event definition with the given name, or nil.
func (p *PMU) Lookup(name string) *Def {
	p.index()
	return p.byName[name]
}

// Decode maps a raw config value back to the counted quantity. The second
// return is the canonical "EVENT:UMASK" name; ok is false for configs that
// do not correspond to any event of this PMU (the kernel then rejects the
// open with an invalid-argument error, as real hardware would reject an
// unsupported event select).
func (p *PMU) Decode(config uint64) (kind Kind, scale float64, name string, ok bool) {
	p.index()
	m, ok := p.byConfig[config]
	if !ok {
		return KindNone, 0, "", false
	}
	return m.kind, m.scale, m.name, true
}

// DefaultUmask returns the default unit mask of the event definition, or nil
// when the event has no umasks.
func (d *Def) DefaultUmask() *Umask {
	for i := range d.Umasks {
		if d.Umasks[i].Default {
			return &d.Umasks[i]
		}
	}
	if len(d.Umasks) > 0 {
		return &d.Umasks[0]
	}
	return nil
}

// Umask returns the named unit mask of the event, or nil.
func (d *Def) Umask(name string) *Umask {
	for i := range d.Umasks {
		if d.Umasks[i].Name == name {
			return &d.Umasks[i]
		}
	}
	return nil
}

// registry maps PMU model names to their tables.
var registry = map[string]*PMU{}

func register(p *PMU) *PMU {
	if _, dup := registry[p.Name]; dup {
		panic("events: duplicate PMU " + p.Name)
	}
	p.index()
	registry[p.Name] = p
	return p
}

// LookupPMU returns the registered PMU model with the given name, or nil.
func LookupPMU(name string) *PMU {
	return registry[name]
}

// PMUNames returns the names of all registered PMU models, sorted.
func PMUNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
