package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Preset is a PAPI preset event name: a portable identifier that resolves
// to the appropriate native event(s) on each machine. On hybrid machines a
// preset becomes a derived event summing one native event per core PMU
// (section V.2), so PAPI_TOT_INS transparently covers both core types.
type Preset string

// The preset events implemented by this library.
const (
	PresetTotIns Preset = "PAPI_TOT_INS" // total retired instructions
	PresetTotCyc Preset = "PAPI_TOT_CYC" // total unhalted cycles
	PresetRefCyc Preset = "PAPI_REF_CYC" // reference (TSC-rate) cycles
	PresetBrIns  Preset = "PAPI_BR_INS"  // retired branches
	PresetBrMsp  Preset = "PAPI_BR_MSP"  // mispredicted branches
	PresetL1DCM  Preset = "PAPI_L1_DCM"  // L1 data cache misses
	PresetL2TCM  Preset = "PAPI_L2_TCM"  // L2 total cache misses
	PresetL3TCA  Preset = "PAPI_L3_TCA"  // LLC total accesses
	PresetL3TCM  Preset = "PAPI_L3_TCM"  // LLC total misses
	PresetLdIns  Preset = "PAPI_LD_INS"  // retired loads
	PresetSrIns  Preset = "PAPI_SR_INS"  // retired stores
	PresetResStl Preset = "PAPI_RES_STL" // resource stall cycles
	PresetVecDP  Preset = "PAPI_VEC_DP"  // packed double-precision vector instructions
	PresetL3TCH  Preset = "PAPI_L3_TCH"  // LLC total hits (derived: accesses - misses)
)

// presetCSV is the preset definition table, playing the role of PAPI's
// PAPI_events.csv. Each line maps (preset, pfm PMU model) to a native
// expression: either one event or "A-B" (a DERIVED_SUB like LLC hits =
// accesses - misses). It is parsed once per process, and each Library
// reads the rows of its machine's PMU models; on hybrids a preset present
// on several core PMUs becomes a DERIVED_ADD across the per-PMU
// expressions. This is the restructuring section V.2 describes: the old
// file was keyed by CPU family/model, which cannot distinguish P from E
// cores because they share one family/model.
const presetCSV = `
# preset,pmu,native
PAPI_TOT_INS,adl_glc,INST_RETIRED:ANY
PAPI_TOT_INS,adl_grt,INST_RETIRED:ANY
PAPI_TOT_INS,skl,INST_RETIRED:ANY
PAPI_TOT_INS,arm_cortex_a72,INST_RETIRED
PAPI_TOT_INS,arm_cortex_a53,INST_RETIRED
PAPI_TOT_CYC,adl_glc,CPU_CLK_UNHALTED:THREAD
PAPI_TOT_CYC,adl_grt,CPU_CLK_UNHALTED:CORE
PAPI_TOT_CYC,skl,CPU_CLK_UNHALTED:THREAD
PAPI_TOT_CYC,arm_cortex_a72,CPU_CYCLES
PAPI_TOT_CYC,arm_cortex_a53,CPU_CYCLES
PAPI_REF_CYC,adl_glc,CPU_CLK_UNHALTED:REF_TSC
PAPI_REF_CYC,adl_grt,CPU_CLK_UNHALTED:REF_TSC
PAPI_REF_CYC,skl,CPU_CLK_UNHALTED:REF_TSC
PAPI_REF_CYC,arm_cortex_a72,BUS_CYCLES
PAPI_REF_CYC,arm_cortex_a53,BUS_CYCLES
PAPI_BR_INS,adl_glc,BR_INST_RETIRED:ALL_BRANCHES
PAPI_BR_INS,adl_grt,BR_INST_RETIRED:ALL_BRANCHES
PAPI_BR_INS,skl,BR_INST_RETIRED:ALL_BRANCHES
PAPI_BR_INS,arm_cortex_a72,BR_RETIRED
PAPI_BR_INS,arm_cortex_a53,BR_PRED
PAPI_BR_MSP,adl_glc,BR_MISP_RETIRED:ALL_BRANCHES
PAPI_BR_MSP,adl_grt,BR_MISP_RETIRED:ALL_BRANCHES
PAPI_BR_MSP,skl,BR_MISP_RETIRED:ALL_BRANCHES
PAPI_BR_MSP,arm_cortex_a72,BR_MIS_PRED_RETIRED
PAPI_BR_MSP,arm_cortex_a53,BR_MIS_PRED
PAPI_L1_DCM,adl_glc,MEM_LOAD_RETIRED:L1_MISS
PAPI_L1_DCM,arm_cortex_a72,L1D_CACHE_REFILL
PAPI_L1_DCM,arm_cortex_a53,L1D_CACHE_REFILL
PAPI_L2_TCM,adl_glc,MEM_LOAD_RETIRED:L2_MISS
PAPI_L2_TCM,arm_cortex_a72,L2D_CACHE_REFILL
PAPI_L2_TCM,arm_cortex_a53,L2D_CACHE_REFILL
PAPI_L3_TCA,adl_glc,LONGEST_LAT_CACHE:REFERENCE
PAPI_L3_TCA,adl_grt,LONGEST_LAT_CACHE:REFERENCE
PAPI_L3_TCA,skl,LONGEST_LAT_CACHE:REFERENCE
PAPI_L3_TCA,arm_cortex_a72,L2D_CACHE
PAPI_L3_TCA,arm_cortex_a53,L2D_CACHE
PAPI_L3_TCM,adl_glc,LONGEST_LAT_CACHE:MISS
PAPI_L3_TCM,adl_grt,LONGEST_LAT_CACHE:MISS
PAPI_L3_TCM,skl,LONGEST_LAT_CACHE:MISS
PAPI_L3_TCM,arm_cortex_a72,L2D_CACHE_REFILL
PAPI_L3_TCM,arm_cortex_a53,L2D_CACHE_REFILL
PAPI_LD_INS,adl_glc,MEM_INST_RETIRED:ALL_LOADS
PAPI_LD_INS,adl_grt,MEM_UOPS_RETIRED:ALL_LOADS
PAPI_LD_INS,arm_cortex_a72,LD_RETIRED
PAPI_LD_INS,arm_cortex_a53,LD_RETIRED
PAPI_SR_INS,adl_glc,MEM_INST_RETIRED:ALL_STORES
PAPI_SR_INS,adl_grt,MEM_UOPS_RETIRED:ALL_STORES
PAPI_SR_INS,arm_cortex_a72,ST_RETIRED
PAPI_SR_INS,arm_cortex_a53,ST_RETIRED
PAPI_RES_STL,adl_glc,CYCLE_ACTIVITY:STALLS_TOTAL
PAPI_RES_STL,adl_grt,CYCLE_ACTIVITY:STALLS_TOTAL
PAPI_RES_STL,arm_cortex_a72,STALL_BACKEND
PAPI_TOT_INS,arm_cortex_x2,INST_RETIRED
PAPI_TOT_INS,arm_cortex_a710,INST_RETIRED
PAPI_TOT_INS,arm_cortex_a510,INST_RETIRED
PAPI_TOT_CYC,arm_cortex_x2,CPU_CYCLES
PAPI_TOT_CYC,arm_cortex_a710,CPU_CYCLES
PAPI_TOT_CYC,arm_cortex_a510,CPU_CYCLES
PAPI_BR_INS,arm_cortex_x2,BR_RETIRED
PAPI_BR_INS,arm_cortex_a710,BR_RETIRED
PAPI_BR_INS,arm_cortex_a510,BR_PRED
PAPI_BR_MSP,arm_cortex_x2,BR_MIS_PRED_RETIRED
PAPI_BR_MSP,arm_cortex_a710,BR_MIS_PRED_RETIRED
PAPI_BR_MSP,arm_cortex_a510,BR_MIS_PRED
PAPI_L1_DCM,arm_cortex_x2,L1D_CACHE_REFILL
PAPI_L1_DCM,arm_cortex_a710,L1D_CACHE_REFILL
PAPI_L1_DCM,arm_cortex_a510,L1D_CACHE_REFILL
PAPI_L3_TCA,arm_cortex_x2,L3D_CACHE
PAPI_L3_TCA,arm_cortex_a710,L3D_CACHE
PAPI_L3_TCA,arm_cortex_a510,L2D_CACHE
PAPI_L3_TCM,arm_cortex_x2,L3D_CACHE_REFILL
PAPI_L3_TCM,arm_cortex_a710,L3D_CACHE_REFILL
PAPI_L3_TCM,arm_cortex_a510,L2D_CACHE_REFILL
PAPI_LD_INS,arm_cortex_x2,LD_RETIRED
PAPI_LD_INS,arm_cortex_a710,LD_RETIRED
PAPI_LD_INS,arm_cortex_a510,LD_RETIRED
PAPI_SR_INS,arm_cortex_x2,ST_RETIRED
PAPI_SR_INS,arm_cortex_a710,ST_RETIRED
PAPI_SR_INS,arm_cortex_a510,ST_RETIRED
PAPI_RES_STL,arm_cortex_x2,STALL_BACKEND
PAPI_RES_STL,arm_cortex_a710,STALL_BACKEND
PAPI_VEC_DP,adl_glc,FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE
PAPI_VEC_DP,adl_grt,FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE
PAPI_VEC_DP,skl,FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE
PAPI_L3_TCH,adl_glc,LONGEST_LAT_CACHE:REFERENCE-LONGEST_LAT_CACHE:MISS
PAPI_L3_TCH,adl_grt,LONGEST_LAT_CACHE:REFERENCE-LONGEST_LAT_CACHE:MISS
PAPI_L3_TCH,skl,LONGEST_LAT_CACHE:REFERENCE-LONGEST_LAT_CACHE:MISS
PAPI_L3_TCH,arm_cortex_a72,L2D_CACHE-L2D_CACHE_REFILL
PAPI_L3_TCH,arm_cortex_a53,L2D_CACHE-L2D_CACHE_REFILL
PAPI_L3_TCH,arm_cortex_x2,L3D_CACHE-L3D_CACHE_REFILL
PAPI_L3_TCH,arm_cortex_a710,L3D_CACHE-L3D_CACHE_REFILL
PAPI_L3_TCH,arm_cortex_a510,L2D_CACHE-L2D_CACHE_REFILL
`

// presetTable maps a preset and a pfm PMU model to the preset's native
// expansion there, "pmu::EVENT" form with a "-" prefix on subtracted terms.
type presetTable map[Preset]map[string][]string

// presets is presetCSV parsed, once per process; every Library reads it
// and none writes it.
var presets = sync.OnceValues(func() (presetTable, error) { return parsePresets(presetCSV) })

// parsePresets parses a preset table in presetCSV's format. The natives
// are checked against each model's event table by TestPresetTableResolves,
// not here: the table is a constant, the same for every machine.
func parsePresets(csv string) (presetTable, error) {
	table := presetTable{}
	for lineNo, line := range strings.Split(csv, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("core: presets.csv line %d malformed: %q", lineNo+1, line)
		}
		preset, pmu := Preset(parts[0]), parts[1]
		natives := strings.Split(parts[2], "-")
		for i, term := range natives {
			natives[i] = pmu + "::" + term
			if i > 0 {
				natives[i] = "-" + natives[i]
			}
		}
		if table[preset] == nil {
			table[preset] = map[string][]string{}
		}
		table[preset][pmu] = natives
	}
	return table, nil
}

// PresetInfo describes a preset's availability on this machine.
type PresetInfo struct {
	// Name is the preset.
	Name Preset
	// Available reports whether the preset can be added at all.
	Available bool
	// Derived reports whether the preset expands to more than one native
	// event (hybrid DERIVED_ADD).
	Derived bool
	// Partial reports that the preset exists on some but not all core
	// PMUs, so its count misses work done on the uncovered core type
	// (e.g. PAPI_RES_STL on the RK3399, where the Cortex-A53 has no stall
	// events).
	Partial bool
	// Natives lists the native expansions, "pmu::EVENT" form, sorted.
	Natives []string
}

// QueryPreset reports how a preset resolves on this machine.
func (l *Library) QueryPreset(p Preset) PresetInfo {
	info := PresetInfo{Name: p}
	table, _ := presets() // Init has parsed it
	covered := 0
	for _, pmu := range l.defaultPMUs() {
		natives, ok := table[p][pmu]
		if !ok {
			continue
		}
		covered++
		info.Natives = append(info.Natives, natives...)
	}
	sort.Strings(info.Natives)
	info.Available = covered > 0
	info.Derived = covered > 1
	info.Partial = covered > 0 && covered < len(l.defaultPMUs())
	return info
}

// Presets lists every preset the table maps on at least one of the
// machine's PMU models, available or not, sorted by name.
func (l *Library) Presets() []PresetInfo {
	table, _ := presets() // Init has parsed it
	var names []string
	for p, byPMU := range table {
		for pmu := range byPMU {
			if l.pfm.HasPMU(pmu) {
				names = append(names, string(p))
				break
			}
		}
	}
	sort.Strings(names)
	out := make([]PresetInfo, 0, len(names))
	for _, n := range names {
		out = append(out, l.QueryPreset(Preset(n)))
	}
	return out
}
