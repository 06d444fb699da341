// Package sysfs builds the synthetic /sys and /proc discovery surface of a
// simulated machine, and implements the heterogeneous core detection
// strategies that section IV.B of the paper enumerates.
//
// The tree is exposed through the standard io/fs.FS interface (paths are
// fs-rooted, i.e. "sys/devices/cpu_atom/type" without a leading slash).
// File contents are generated on each read, so live values such as
// scaling_cur_freq, thermal zone temperatures, RAPL energy_uj and the online
// CPU list track the running simulation when a Live provider is attached.
//
// Files provided:
//
//	sys/devices/<pmu>/type                     dynamic perf type id
//	sys/devices/<pmu>/cpus                     cpu list covered by the PMU
//	sys/devices/system/cpu/{possible,online}
//	sys/devices/system/cpu/cpuN/cpu_capacity   (ARM machines only)
//	sys/devices/system/cpu/cpuN/cpufreq/{cpuinfo_max_freq,cpuinfo_min_freq,scaling_cur_freq}
//	sys/devices/system/cpu/cpuN/topology/{core_id,core_cpus_list}
//	sys/class/thermal/thermal_zoneN/{type,temp}
//	sys/class/powercap/intel-rapl:0/{name,energy_uj,constraint_0_power_limit_uw,constraint_1_power_limit_uw}  (RAPL machines)
//	proc/cpuinfo
package sysfs

import (
	"fmt"
	"sort"
	"strings"

	"hetpapi/internal/hw"
)

// Live supplies the time-varying values of the tree. A nil Live leaves the
// dynamic files at plausible idle values, with every CPU online.
type Live interface {
	// CurFreqKHz returns the current frequency of a logical CPU in kHz.
	CurFreqKHz(cpu int) int
	// ZoneTempMilliC returns the temperature of the machine's thermal zone
	// in millidegrees Celsius.
	ZoneTempMilliC() int
	// EnergyUJ returns the accumulated RAPL package energy in microjoules.
	EnergyUJ() uint64
	// OnlineCPUs returns the online logical CPU ids, ascending.
	OnlineCPUs() []int
}

// FS is the synthetic tree. It implements io/fs.FS.
type FS struct {
	m     *hw.Machine
	live  Live
	files map[string]func() string
	dirs  map[string][]string
}

// New builds the tree for a machine. live may be nil.
func New(m *hw.Machine, live Live) *FS {
	f := &FS{m: m, live: live, files: map[string]func() string{}}
	f.build()
	f.indexDirs()
	return f
}

func static(s string) func() string { return func() string { return s } }

func (f *FS) build() {
	m := f.m
	// PMU directories, as the perf tool scans them.
	for i := range m.Types {
		t := &m.Types[i]
		dir := "sys/devices/" + t.PMU.Name
		f.files[dir+"/type"] = static(fmt.Sprintf("%d\n", t.PMU.PerfType))
		f.files[dir+"/cpus"] = static(FormatCPUList(m.CPUsOfType(t.Name)) + "\n")
	}
	for i := range m.Uncore {
		u := &m.Uncore[i]
		dir := "sys/devices/" + u.PMU.Name
		f.files[dir+"/type"] = static(fmt.Sprintf("%d\n", u.PMU.PerfType))
		f.files[dir+"/cpumask"] = static("0\n")
	}
	if m.Power.HasRAPL {
		f.files["sys/devices/power/type"] = static(fmt.Sprintf("%d\n", m.Power.RAPLPerfType))
		f.files["sys/devices/power/cpus"] = static("0\n")
	}

	all := make([]int, m.NumCPUs())
	for i := range all {
		all[i] = i
	}
	f.files["sys/devices/system/cpu/possible"] = static(FormatCPUList(all) + "\n")
	f.files["sys/devices/system/cpu/online"] = func() string {
		if f.live != nil {
			return FormatCPUList(f.live.OnlineCPUs()) + "\n"
		}
		return FormatCPUList(all) + "\n"
	}

	for _, c := range m.CPUs {
		cpu := c
		t := &m.Types[c.TypeIndex]
		base := fmt.Sprintf("sys/devices/system/cpu/cpu%d", c.ID)
		if m.HasCPUCapacity {
			f.files[base+"/cpu_capacity"] = static(fmt.Sprintf("%d\n", t.Capacity))
		}
		f.files[base+"/cpufreq/cpuinfo_max_freq"] = static(fmt.Sprintf("%d\n", int(t.MaxFreqMHz*1000)))
		f.files[base+"/cpufreq/cpuinfo_min_freq"] = static(fmt.Sprintf("%d\n", int(t.MinFreqMHz*1000)))
		f.files[base+"/cpufreq/scaling_cur_freq"] = func() string {
			if f.live != nil {
				return fmt.Sprintf("%d\n", f.live.CurFreqKHz(cpu.ID))
			}
			return fmt.Sprintf("%d\n", int(t.MinFreqMHz*1000))
		}
		f.files[base+"/topology/core_id"] = static(fmt.Sprintf("%d\n", c.PhysCore))
		siblings := []int{c.ID}
		if s := m.SiblingOf(c.ID); s >= 0 {
			siblings = append(siblings, s)
			sort.Ints(siblings)
		}
		f.files[base+"/topology/core_cpus_list"] = static(FormatCPUList(siblings) + "\n")
	}

	zone := fmt.Sprintf("sys/class/thermal/thermal_zone%d", m.Thermal.ZoneIndex)
	f.files[zone+"/type"] = static(m.Thermal.ZoneName + "\n")
	f.files[zone+"/temp"] = func() string {
		if f.live != nil {
			return fmt.Sprintf("%d\n", f.live.ZoneTempMilliC())
		}
		return fmt.Sprintf("%d\n", int(m.Thermal.AmbientC*1000))
	}

	if m.Power.HasRAPL {
		rapl := "sys/class/powercap/intel-rapl:0"
		f.files[rapl+"/name"] = static("package-0\n")
		f.files[rapl+"/energy_uj"] = func() string {
			if f.live != nil {
				return fmt.Sprintf("%d\n", f.live.EnergyUJ())
			}
			return "0\n"
		}
		f.files[rapl+"/constraint_0_power_limit_uw"] = static(fmt.Sprintf("%d\n", int(m.Power.PL1Watts*1e6)))
		f.files[rapl+"/constraint_1_power_limit_uw"] = static(fmt.Sprintf("%d\n", int(m.Power.PL2Watts*1e6)))
	}

	f.files["proc/cpuinfo"] = static(f.cpuinfo())
}

func (f *FS) cpuinfo() string {
	m := f.m
	var b strings.Builder
	for _, c := range m.CPUs {
		t := &m.Types[c.TypeIndex]
		if m.Arch == "aarch64" {
			// ARM style: the "CPU part" field differs between core types,
			// which is why /proc/cpuinfo works as a detection strategy on
			// ARM (paper section IV.B).
			fmt.Fprintf(&b, "processor\t: %d\n", c.ID)
			fmt.Fprintf(&b, "BogoMIPS\t: 48.00\n")
			fmt.Fprintf(&b, "Features\t: fp asimd evtstrm aes pmull sha1 sha2 crc32\n")
			fmt.Fprintf(&b, "CPU implementer\t: 0x41\n")
			fmt.Fprintf(&b, "CPU architecture: %d\n", m.Family)
			fmt.Fprintf(&b, "CPU variant\t: 0x0\n")
			fmt.Fprintf(&b, "CPU part\t: 0x%03x\n", armPartFor(t.Microarch))
			fmt.Fprintf(&b, "CPU revision\t: %d\n\n", m.Stepping)
			continue
		}
		// x86 style: family/model/stepping and the model name are
		// identical for P- and E-cores, so cpuinfo cannot tell the core
		// types apart — the failure mode the paper calls out.
		fmt.Fprintf(&b, "processor\t: %d\n", c.ID)
		fmt.Fprintf(&b, "vendor_id\t: %s\n", m.Vendor)
		fmt.Fprintf(&b, "cpu family\t: %d\n", m.Family)
		fmt.Fprintf(&b, "model\t\t: %d\n", m.Model)
		fmt.Fprintf(&b, "model name\t: %s\n", m.CPUModel)
		fmt.Fprintf(&b, "stepping\t: %d\n", m.Stepping)
		fmt.Fprintf(&b, "core id\t\t: %d\n", c.PhysCore)
		fmt.Fprintf(&b, "cpu MHz\t\t: %.3f\n\n", t.BaseFreqMHz)
	}
	return b.String()
}

func armPartFor(uarch string) int {
	switch uarch {
	case "Cortex-A53":
		return 0xd03
	case "Cortex-A72":
		return 0xd08
	case "Cortex-A55":
		return 0xd05
	case "Cortex-A76":
		return 0xd0b
	case "Cortex-A510":
		return 0xd46
	case "Cortex-A710":
		return 0xd47
	case "Cortex-X2":
		return 0xd48
	default:
		return 0xfff
	}
}

// FormatCPUList renders a sorted id list in kernel cpulist format, e.g.
// "0-3,8,10-11".
func FormatCPUList(ids []int) string {
	if len(ids) == 0 {
		return ""
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	var parts []string
	start, prev := sorted[0], sorted[0]
	flush := func() {
		if start == prev {
			parts = append(parts, fmt.Sprintf("%d", start))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, id := range sorted[1:] {
		if id == prev {
			continue
		}
		if id == prev+1 {
			prev = id
			continue
		}
		flush()
		start, prev = id, id
	}
	flush()
	return strings.Join(parts, ",")
}

// MaxParseCPUID bounds the ids ParseCPUList accepts: cpulists name logical
// CPUs, and no supported machine has more than a few dozen. The bound also
// keeps hostile inputs ("0-99999999") from allocating unbounded memory.
const MaxParseCPUID = 4095

// ParseCPUList parses kernel cpulist format ("0,2,4-7") into a sorted list
// of unique ids.
func ParseCPUList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("sysfs: empty element in cpu list %q", s)
		}
		var lo, hi int
		if strings.Contains(part, "-") {
			if _, err := fmt.Sscanf(part, "%d-%d", &lo, &hi); err != nil {
				return nil, fmt.Errorf("sysfs: bad cpu range %q: %v", part, err)
			}
		} else {
			if _, err := fmt.Sscanf(part, "%d", &lo); err != nil {
				return nil, fmt.Errorf("sysfs: bad cpu id %q: %v", part, err)
			}
			hi = lo
		}
		if lo < 0 || hi < lo {
			return nil, fmt.Errorf("sysfs: bad cpu range %q", part)
		}
		if hi > MaxParseCPUID {
			return nil, fmt.Errorf("sysfs: cpu id %d exceeds the supported maximum %d", hi, MaxParseCPUID)
		}
		for i := lo; i <= hi; i++ {
			seen[i] = true
		}
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out, nil
}
