package core

import (
	"strings"
	"testing"

	"hetpapi/internal/hw"
	"hetpapi/internal/sim"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestPresetTableResolves checks presetCSV against the event tables of
// every machine model, patched and legacy: each available preset's
// natives resolve and AddPreset accepts it. Every row must also name a
// PMU model some machine exposes, or the row could never be used.
func TestPresetTableResolves(t *testing.T) {
	table, err := presets()
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, model := range hw.Models {
		for _, legacy := range []bool{false, true} {
			l := initLib(t, sim.New(model.Make(), sim.DefaultConfig()), Options{Legacy: legacy})
			for _, pmu := range l.Pfm().PMUs() {
				used[pmu.Name] = true
			}
			for _, info := range l.Presets() {
				if !info.Available {
					continue
				}
				for _, native := range info.Natives {
					if _, err := l.Pfm().ParseEvent(strings.TrimPrefix(native, "-")); err != nil {
						t.Errorf("%s legacy=%v: %s: %v", model.Name, legacy, info.Name, err)
					}
				}
				if err := l.CreateEventSet().AddPreset(info.Name); err != nil {
					t.Errorf("%s legacy=%v: AddPreset(%s): %v", model.Name, legacy, info.Name, err)
				}
			}
		}
	}
	for preset, byPMU := range table {
		for pmu := range byPMU {
			if !used[pmu] {
				t.Errorf("%s row names PMU model %q, which no machine model exposes", preset, pmu)
			}
		}
	}
}

func TestParsePresetsRejectsMalformedRow(t *testing.T) {
	if _, err := parsePresets("PAPI_TOT_INS,adl_glc,INST_RETIRED:ANY\nPAPI_TOT_CYC,adl_glc\n"); err == nil ||
		!strings.Contains(err.Error(), "line 2 malformed") {
		t.Fatalf("parsePresets with a two-column row: err = %v", err)
	}
	table, err := parsePresets("# preset,pmu,native\nPAPI_L3_TCH,skl,A:X-A:Y\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(table[PresetL3TCH]["skl"], " "); got != "skl::A:X -skl::A:Y" {
		t.Fatalf("natives = %q", got)
	}
}

// TestInitAllocations holds Init to the cost of building the libpfm view
// of the machine: the preset table is parsed once per process, not per
// library.
func TestInitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are checked without the race detector")
	}
	const maxAllocs = 16
	for _, model := range hw.Models {
		s := sim.New(model.Make(), sim.DefaultConfig())
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := Init(s, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per Init", model.Name, allocs)
		if allocs > maxAllocs {
			t.Errorf("%s: Init allocates %.0f times, want at most %d", model.Name, allocs, maxAllocs)
		}
	}
}
