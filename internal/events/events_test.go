package events

import (
	"testing"
	"testing/quick"
)

func TestRegistryContents(t *testing.T) {
	want := []string{"adl_glc", "adl_grt", "adl_imc", "arm_cortex_a510", "arm_cortex_a53",
		"arm_cortex_a710", "arm_cortex_a72", "arm_cortex_x2", "perf", "rapl", "skl"}
	got := PMUNames()
	if len(got) != len(want) {
		t.Fatalf("PMUNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PMUNames = %v, want %v", got, want)
		}
	}
	for _, n := range want {
		if LookupPMU(n) == nil {
			t.Errorf("LookupPMU(%q) = nil", n)
		}
	}
	if LookupPMU("nope") != nil {
		t.Error("LookupPMU(nope) should be nil")
	}
}

func TestLookupEvent(t *testing.T) {
	d := AdlGlc.Lookup("INST_RETIRED")
	if d == nil {
		t.Fatal("adl_glc INST_RETIRED missing")
	}
	um := d.DefaultUmask()
	if um == nil || um.Name != "ANY" {
		t.Fatalf("default umask = %v, want ANY", um)
	}
	if um.Kind != KindInstructions {
		t.Errorf("INST_RETIRED:ANY kind = %v", um.Kind)
	}
	if d.Umask("MACRO_FUSED") == nil {
		t.Error("MACRO_FUSED umask missing")
	}
	if d.Umask("NOPE") != nil {
		t.Error("unknown umask should be nil")
	}
	if AdlGlc.Lookup("NOT_AN_EVENT") != nil {
		t.Error("unknown event should be nil")
	}
}

func TestTopdownOnlyOnPCore(t *testing.T) {
	// The paper's canonical example: Intel topdown events exist only on
	// the P-core PMU.
	if AdlGlc.Lookup("TOPDOWN") == nil {
		t.Error("adl_glc must have TOPDOWN")
	}
	if AdlGrt.Lookup("TOPDOWN") != nil {
		t.Error("adl_grt must NOT have TOPDOWN")
	}
}

func TestA53SmallerThanA72(t *testing.T) {
	if ArmCortexA53.Lookup("INST_RETIRED") == nil || ArmCortexA72.Lookup("INST_RETIRED") == nil {
		t.Fatal("both ARM PMUs need INST_RETIRED")
	}
	if ArmCortexA72.Lookup("STALL_BACKEND") == nil {
		t.Error("A72 should have STALL_BACKEND")
	}
	if ArmCortexA53.Lookup("STALL_BACKEND") != nil {
		t.Error("A53 should not have STALL_BACKEND")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, pmuName := range PMUNames() {
		p := LookupPMU(pmuName)
		for _, d := range p.Events {
			if len(d.Umasks) == 0 {
				cfg := Encode(d.Code, 0)
				kind, scale, name, ok := p.Decode(cfg)
				if !ok {
					t.Errorf("%s::%s: decode failed", pmuName, d.Name)
					continue
				}
				if kind != d.Kind || name != d.Name {
					t.Errorf("%s::%s: decode = (%v, %q)", pmuName, d.Name, kind, name)
				}
				if scale <= 0 && d.Scale != 0 {
					t.Errorf("%s::%s: scale %g", pmuName, d.Name, scale)
				}
				continue
			}
			for _, u := range d.Umasks {
				cfg := Encode(d.Code, u.Bits)
				kind, scale, _, ok := p.Decode(cfg)
				if !ok {
					t.Errorf("%s::%s:%s: decode failed", pmuName, d.Name, u.Name)
					continue
				}
				// Duplicate encodings keep the first mapping, which must
				// still have the same kind class for sane duplicates.
				_ = kind
				if scale <= 0 {
					t.Errorf("%s::%s:%s: scale %g", pmuName, d.Name, u.Name, scale)
				}
			}
		}
	}
}

func TestDecodeRejectsUnknownConfig(t *testing.T) {
	if _, _, _, ok := AdlGlc.Decode(Encode(0xEE, 0xEE)); ok {
		t.Error("decode accepted a bogus config")
	}
}

func TestEncodeParts(t *testing.T) {
	cfg := Encode(0xC4, 0x11)
	code, um := DecodeParts(cfg)
	if code != 0xC4 || um != 0x11 {
		t.Fatalf("DecodeParts(%#x) = (%#x, %#x)", cfg, code, um)
	}
	// Code and umask must be masked to 8 bits.
	if Encode(0x1C4, 0x211) != Encode(0xC4, 0x11) {
		t.Error("Encode must mask to 8 bits")
	}
}

func TestValueOf(t *testing.T) {
	s := Stats{
		Cycles: 100, RefCycles: 80, Instructions: 250,
		Branches: 40, BranchMisses: 2,
		Loads: 60, Stores: 30,
		L1DRefs: 90, L1DMisses: 9,
		L2Refs: 9, L2Misses: 3,
		LLCRefs: 3, LLCMisses: 1,
		FPScalarD: 5, FP128D: 6, FP256D: 7,
		StallCycles: 20, Slots: 600, Flops: 62,
	}
	cases := []struct {
		k    Kind
		want float64
	}{
		{KindInstructions, 250}, {KindCycles, 100}, {KindRefCycles, 80},
		{KindSlots, 600}, {KindStallCycles, 20},
		{KindBranches, 40}, {KindBranchMisses, 2},
		{KindLoads, 60}, {KindStores, 30}, {KindMemAccess, 90},
		{KindL1DRefs, 90}, {KindL1DMisses, 9},
		{KindL2Refs, 9}, {KindL2Misses, 3},
		{KindLLCRefs, 3}, {KindLLCMisses, 1}, {KindLLCHits, 2},
		{KindFPScalarD, 5}, {KindFP128D, 6}, {KindFP256D, 7},
		{KindBusCycles, 80},
		{KindEnergyPkg, 0}, {KindEnergyCores, 0},
		{KindNone, 0},
	}
	for _, c := range cases {
		if got := ValueOf(&s, c.k); got != c.want {
			t.Errorf("ValueOf(%v) = %g, want %g", c.k, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindLLCMisses.String() != "llc-misses" {
		t.Errorf("KindLLCMisses = %q", KindLLCMisses.String())
	}
	if Kind(999).String() == "" {
		t.Error("unknown kind must stringify")
	}
	if !KindEnergyPkg.Energy() || KindCycles.Energy() {
		t.Error("Energy() classification wrong")
	}
}

func TestGenericKinds(t *testing.T) {
	for id := uint64(0); id <= 9; id++ {
		k, scale := GenericKind(id)
		if k == KindNone || scale <= 0 {
			t.Errorf("GenericKind(%d) = (%v, %g)", id, k, scale)
		}
		if GenericName(id) == "" {
			t.Errorf("GenericName(%d) empty", id)
		}
	}
	if k, _ := GenericKind(99); k != KindNone {
		t.Error("unknown generic id must map to KindNone")
	}
	if GenericName(99) != "" {
		t.Error("unknown generic id must have empty name")
	}
}

// Property: Stats.Add is componentwise addition — ValueOf distributes over
// Add for every kind.
func TestStatsAddProperty(t *testing.T) {
	// Build stats from bounded non-negative integers: counters are counts,
	// and unconstrained float generation explores magnitudes (1e308) where
	// float addition loses associativity for reasons unrelated to Add.
	mk := func(v [19]uint32) Stats {
		return Stats{
			Cycles: float64(v[0]), RefCycles: float64(v[1]), Instructions: float64(v[2]),
			Branches: float64(v[3]), BranchMisses: float64(v[4]),
			Loads: float64(v[5]), Stores: float64(v[6]),
			L1DRefs: float64(v[7]), L1DMisses: float64(v[8]),
			L2Refs: float64(v[9]), L2Misses: float64(v[10]),
			LLCRefs: float64(v[11]), LLCMisses: float64(v[12]),
			FPScalarD: float64(v[13]), FP128D: float64(v[14]), FP256D: float64(v[15]),
			StallCycles: float64(v[16]), Slots: float64(v[17]), Flops: float64(v[18]),
		}
	}
	f := func(av, bv [19]uint32) bool {
		a, b := mk(av), mk(bv)
		sum := a
		sum.Add(b)
		for k := Kind(1); k < numKinds; k++ {
			if k.Energy() {
				continue
			}
			got := ValueOf(&sum, k)
			want := ValueOf(&a, k) + ValueOf(&b, k)
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			tol := 1e-9 * (1 + abs(want))
			if diff > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: every event reachable by name is decodable from its encoding.
func TestEveryNamedEventDecodes(t *testing.T) {
	for _, pmuName := range PMUNames() {
		p := LookupPMU(pmuName)
		for _, d := range p.Events {
			um := d.DefaultUmask()
			var cfg uint64
			if um != nil {
				cfg = Encode(d.Code, um.Bits)
			} else {
				cfg = Encode(d.Code, 0)
			}
			if _, _, _, ok := p.Decode(cfg); !ok {
				t.Errorf("%s::%s: default encoding %#x does not decode", pmuName, d.Name, cfg)
			}
		}
	}
}

func TestSoftwareKindClassification(t *testing.T) {
	for _, k := range []Kind{KindSWCpuClock, KindSWTaskClock, KindSWPageFaults,
		KindSWContextSwitches, KindSWCpuMigrations} {
		if !k.Software() {
			t.Errorf("%v must classify as software", k)
		}
		if k.Energy() {
			t.Errorf("%v must not classify as energy", k)
		}
		if k.String() == "" || k.String()[:3] != "sw-" {
			t.Errorf("%v string = %q", k, k.String())
		}
		if ValueOf(&Stats{Instructions: 1e9}, k) != 0 {
			t.Errorf("%v must not be serviced by ValueOf", k)
		}
	}
	if KindCycles.Software() {
		t.Error("hardware kind classified as software")
	}
	d := PerfSoftware.Lookup("CONTEXT_SWITCHES")
	if d == nil || d.Kind != KindSWContextSwitches {
		t.Fatalf("software table lookup: %+v", d)
	}
	if d.DefaultUmask() != nil {
		t.Error("software events have no umasks")
	}
}

func TestUncoreTable(t *testing.T) {
	d := AdlImc.Lookup("UNC_M_CAS_COUNT")
	if d == nil {
		t.Fatal("IMC CAS event missing")
	}
	rd := d.Umask("RD")
	if rd == nil || rd.Kind != KindLLCMisses || rd.Scale <= 1.0 {
		t.Fatalf("CAS RD umask = %+v", rd)
	}
	wr := d.Umask("WR")
	if wr == nil || wr.Scale >= rd.Scale {
		t.Fatal("write CAS must scale below read CAS")
	}
	if AdlImc.Lookup("UNC_M_ACT_COUNT") == nil || AdlImc.Lookup("UNC_M_PRE_COUNT") == nil {
		t.Error("IMC activation/precharge events missing")
	}
}
