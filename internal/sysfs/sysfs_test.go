package sysfs

import (
	"io/fs"
	"strings"
	"testing"
	"testing/fstest"
	"testing/quick"

	"hetpapi/internal/hw"
)

func TestFSConformance(t *testing.T) {
	f := New(hw.RaptorLake(), nil)
	if err := fstest.TestFS(f,
		"sys/devices/cpu_core/type",
		"sys/devices/cpu_atom/type",
		"sys/devices/power/type",
		"sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq",
		"sys/class/thermal/thermal_zone9/type",
		"sys/class/powercap/intel-rapl:0/energy_uj",
		"proc/cpuinfo",
	); err != nil {
		t.Fatal(err)
	}
}

func TestPMUTypeFiles(t *testing.T) {
	f := New(hw.RaptorLake(), nil)
	if got, _ := f.ReadFile("sys/devices/cpu_core/type"); got != "8" {
		t.Errorf("cpu_core/type = %q, want 8", got)
	}
	if got, _ := f.ReadFile("sys/devices/cpu_atom/type"); got != "10" {
		t.Errorf("cpu_atom/type = %q, want 10", got)
	}
	if got, _ := f.ReadFile("sys/devices/cpu_atom/cpus"); got != "16-23" {
		t.Errorf("cpu_atom/cpus = %q, want 16-23", got)
	}
	if got, _ := f.ReadFile("sys/devices/cpu_core/cpus"); got != "0-15" {
		t.Errorf("cpu_core/cpus = %q, want 0-15", got)
	}
}

func TestCapacityOnlyOnARM(t *testing.T) {
	arm := New(hw.OrangePi800(), nil)
	if got, _ := arm.ReadFile("sys/devices/system/cpu/cpu0/cpu_capacity"); got != "485" {
		t.Errorf("cpu0 capacity = %q, want 485 (A53)", got)
	}
	if got, _ := arm.ReadFile("sys/devices/system/cpu/cpu4/cpu_capacity"); got != "1024" {
		t.Errorf("cpu4 capacity = %q, want 1024 (A72)", got)
	}
	x86 := New(hw.RaptorLake(), nil)
	if x86.Exists("sys/devices/system/cpu/cpu0/cpu_capacity") {
		t.Error("x86 machine must not expose cpu_capacity")
	}
}

func TestNoRAPLTreeOnARM(t *testing.T) {
	arm := New(hw.OrangePi800(), nil)
	if arm.Exists("sys/class/powercap/intel-rapl:0/energy_uj") {
		t.Error("ARM machine must not expose intel-rapl")
	}
	if arm.Exists("sys/devices/power/type") {
		t.Error("ARM machine must not expose a power PMU")
	}
}

type fakeLive struct {
	freq map[int]int
	temp int
	uj   uint64
}

func (f fakeLive) CurFreqKHz(cpu int) int { return f.freq[cpu] }
func (f fakeLive) ZoneTempMilliC() int    { return f.temp }
func (f fakeLive) EnergyUJ() uint64       { return f.uj }
func (f fakeLive) OnlineCPUs() []int      { return []int{0, 1, 2, 4} }

func TestLiveValues(t *testing.T) {
	live := fakeLive{freq: map[int]int{0: 4200000, 16: 3100000}, temp: 67500, uj: 123456789}
	f := New(hw.RaptorLake(), live)
	if got, _ := f.ReadFile("sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq"); got != "4200000" {
		t.Errorf("cpu0 cur freq = %q", got)
	}
	if got, _ := f.ReadFile("sys/class/thermal/thermal_zone9/temp"); got != "67500" {
		t.Errorf("zone temp = %q", got)
	}
	if got, _ := f.ReadFile("sys/class/powercap/intel-rapl:0/energy_uj"); got != "123456789" {
		t.Errorf("energy_uj = %q", got)
	}
	if got, _ := f.ReadFile("sys/devices/system/cpu/online"); got != "0-2,4" {
		t.Errorf("online = %q", got)
	}
}

func TestStaticDefaults(t *testing.T) {
	f := New(hw.RaptorLake(), nil)
	if got, _ := f.ReadFile("sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq"); got != "5100000" {
		t.Errorf("P max freq = %q, want 5100000 kHz", got)
	}
	if got, _ := f.ReadFile("sys/devices/system/cpu/cpu16/cpufreq/cpuinfo_max_freq"); got != "4100000" {
		t.Errorf("E max freq = %q, want 4100000 kHz", got)
	}
	if got, _ := f.ReadFile("sys/class/powercap/intel-rapl:0/constraint_0_power_limit_uw"); got != "65000000" {
		t.Errorf("PL1 = %q, want 65000000", got)
	}
	if got, _ := f.ReadFile("sys/class/powercap/intel-rapl:0/constraint_1_power_limit_uw"); got != "219000000" {
		t.Errorf("PL2 = %q, want 219000000", got)
	}
}

func TestTopologyFiles(t *testing.T) {
	f := New(hw.RaptorLake(), nil)
	if got, _ := f.ReadFile("sys/devices/system/cpu/cpu1/topology/core_cpus_list"); got != "0-1" {
		t.Errorf("cpu1 siblings = %q, want 0-1", got)
	}
	if got, _ := f.ReadFile("sys/devices/system/cpu/cpu16/topology/core_cpus_list"); got != "16" {
		t.Errorf("cpu16 siblings = %q, want 16", got)
	}
}

func TestOpenErrors(t *testing.T) {
	f := New(hw.RaptorLake(), nil)
	if _, err := f.Open("no/such/file"); err == nil {
		t.Error("expected not-exist error")
	}
	if _, err := f.Open("/sys/devices"); err == nil {
		t.Error("expected invalid path error for rooted path")
	}
	if _, err := f.ReadFile("nope"); err == nil {
		t.Error("ReadFile must propagate errors")
	}
}

func TestFormatCPUList(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, ""},
		{[]int{3}, "3"},
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{0, 2, 4}, "0,2,4"},
		{[]int{5, 0, 1, 2, 7, 8}, "0-2,5,7-8"},
		{[]int{1, 1, 2}, "1-2"},
	}
	for _, c := range cases {
		if got := FormatCPUList(c.in); got != c.want {
			t.Errorf("FormatCPUList(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseCPUList(t *testing.T) {
	got, err := ParseCPUList("0,2,4,6,8,10,12,14,16-24")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 17, 18, 19, 20, 21, 22, 23, 24}
	if len(got) != len(want) {
		t.Fatalf("ParseCPUList = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseCPUList = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"a", "1-", "3-1", "-1", "1,,2"} {
		if _, err := ParseCPUList(bad); err == nil {
			t.Errorf("ParseCPUList(%q) should fail", bad)
		}
	}
	if got, err := ParseCPUList("  "); err != nil || got != nil {
		t.Errorf("empty list should parse to nil, got %v, %v", got, err)
	}
}

// Property: FormatCPUList and ParseCPUList are inverses on sorted unique
// id sets.
func TestCPUListRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		seen := map[int]bool{}
		var ids []int
		for _, r := range raw {
			id := int(r)
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		formatted := FormatCPUList(ids)
		parsed, err := ParseCPUList(formatted)
		if err != nil {
			return false
		}
		if len(parsed) != len(ids) {
			return false
		}
		for _, id := range parsed {
			if !seen[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCPUInfoContents(t *testing.T) {
	x86, _ := New(hw.RaptorLake(), nil).ReadFile("proc/cpuinfo")
	if !strings.Contains(x86, "GenuineIntel") || !strings.Contains(x86, "i7-13700") {
		t.Error("x86 cpuinfo missing vendor/model")
	}
	if strings.Contains(x86, "CPU part") {
		t.Error("x86 cpuinfo must not contain ARM fields")
	}
	arm, _ := New(hw.OrangePi800(), nil).ReadFile("proc/cpuinfo")
	if !strings.Contains(arm, "0xd03") || !strings.Contains(arm, "0xd08") {
		t.Error("ARM cpuinfo must contain both CPU part values")
	}
}

func TestWalkFindsEverything(t *testing.T) {
	f := New(hw.OrangePi800(), nil)
	var files int
	err := fs.WalkDir(f, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			files++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 PMU dirs x2 + online/possible + 6 cpus x (capacity + 3 cpufreq + 2
	// topology) + 2 thermal + cpuinfo = 4+2+36+2+1 = 45
	if files != 45 {
		t.Errorf("walk found %d files, want 45", files)
	}
}

func TestParseCPUListBounded(t *testing.T) {
	// Hostile ranges must be rejected rather than expanded into memory.
	if _, err := ParseCPUList("0-99999999"); err == nil {
		t.Fatal("unbounded range must be rejected")
	}
	if _, err := ParseCPUList("4096"); err == nil {
		t.Fatal("id above MaxParseCPUID must be rejected")
	}
	if ids, err := ParseCPUList("4095"); err != nil || len(ids) != 1 {
		t.Fatalf("MaxParseCPUID itself must parse: %v %v", ids, err)
	}
}
