// Package core is this repository's PAPI: a cross-platform performance
// measurement library in the style of the Performance API, extended with
// the heterogeneous-processor support that the paper (section IV) adds to
// real PAPI — the primary contribution being reproduced.
//
// The library sits on top of internal/pfmlib (event naming, the libpfm4
// role) and internal/perfevent (the kernel). Its central abstraction is
// the EventSet: a group of events started, stopped, read and reset
// together, calipering arbitrary regions of a workload's execution — the
// capability the paper highlights as PAPI's advantage over the perf tool.
//
// Heterogeneous support, following the paper:
//
//   - Multiple default PMUs (IV.D): unqualified event names search every
//     core PMU; hardware info reports each core type.
//   - Multi-PMU EventSets (IV.E): events from different PMUs land in
//     separate perf event groups inside one EventSet and are started,
//     stopped, read and reset together.
//   - Hybrid-aware presets (V.2): PAPI_TOT_INS and friends expand into one
//     native event per core PMU and report the transparent sum.
//   - Unified component (V.3): RAPL energy events join the same EventSet
//     as core events instead of living in a separate component.
//   - Detailed processor reporting (V.1) and a sysdetect view (IV.B).
//
// Options.Legacy reproduces the PAPI 7.1 behaviour the paper starts from:
// one default PMU, single-PMU EventSets, no hybrid presets — useful as the
// experimental baseline (section IV.F's "with original PAPI you could
// specify only one of the events").
package core

import (
	"errors"
	"fmt"

	"hetpapi/internal/pfmlib"
	"hetpapi/internal/sim"
	"hetpapi/internal/spantrace"
	"hetpapi/internal/sysfs"
)

// PAPI-style error conditions.
var (
	// ErrNoEvent mirrors PAPI_ENOEVNT: the event cannot be found or is
	// unavailable on this machine.
	ErrNoEvent = errors.New("core: event not available (PAPI_ENOEVNT)")
	// ErrConflict mirrors PAPI_ECNFLCT: the event conflicts with the
	// EventSet (wrong PMU in legacy mode, component collision, another
	// running EventSet on the component).
	ErrConflict = errors.New("core: event conflicts with eventset (PAPI_ECNFLCT)")
	// ErrIsRunning mirrors PAPI_EISRUN: the operation needs a stopped
	// EventSet.
	ErrIsRunning = errors.New("core: eventset is running (PAPI_EISRUN)")
	// ErrNotRunning mirrors PAPI_ENOTRUN.
	ErrNotRunning = errors.New("core: eventset is not running (PAPI_ENOTRUN)")
	// ErrInvalid mirrors PAPI_EINVAL.
	ErrInvalid = errors.New("core: invalid argument (PAPI_EINVAL)")
)

// Options configures library initialization.
type Options struct {
	// Legacy selects the unpatched PAPI 7.1 behaviour: a single default
	// PMU, EventSets limited to one PMU type, presets resolved against the
	// default PMU only, RAPL confined to its own component, and no
	// per-core-type hardware reporting.
	Legacy bool
}

// Library is an initialized PAPI instance bound to one machine.
type Library struct {
	sys    *sim.Machine
	pfm    *pfmlib.Library
	legacy bool

	// One EventSet may be running per component *per attached thread* at a
	// time (the PAPI rule the paper works around by putting multiple PMUs
	// into ONE EventSet). Components: "cpu" (all core PMUs), "rapl",
	// "uncore"; the CPU-wide components use pid -1.
	active map[componentKey]*EventSet

	sets int // id counter

	// traceRec / papiTrk cache the machine's span recorder and the
	// "papi" track id (see trace.go).
	traceRec *spantrace.Recorder
	papiTrk  int
}

// Init initializes the library against a simulated machine.
func Init(sys *sim.Machine, opts Options) (*Library, error) {
	pfm, err := pfmlib.New(sys.HW)
	if err != nil {
		return nil, fmt.Errorf("core: libpfm4 initialization failed: %w", err)
	}
	if _, err := presets(); err != nil {
		return nil, err
	}
	return &Library{sys: sys, pfm: pfm, legacy: opts.Legacy, active: map[componentKey]*EventSet{}}, nil
}

// Legacy reports whether the library runs in PAPI 7.1 compatibility mode.
func (l *Library) Legacy() bool { return l.legacy }

// Pfm exposes the event-naming library (papi_native_avail functionality).
func (l *Library) Pfm() *pfmlib.Library { return l.pfm }

// defaultPMUs returns the PMUs unqualified names resolve against: all core
// PMUs when patched, only the first (hard-coded "P" choice, IV.D) when
// legacy.
func (l *Library) defaultPMUs() []string {
	d := l.pfm.DefaultPMUs()
	if l.legacy && len(d) > 1 {
		return d[:1]
	}
	return d
}

// CoreTypeInfo describes one core type for hardware reporting.
type CoreTypeInfo struct {
	// Name is the core type name ("P-core").
	Name string
	// Microarch is the microarchitecture ("RaptorCove").
	Microarch string
	// PMUName is the kernel PMU ("cpu_core"); PfmName the event-table
	// model ("adl_glc").
	PMUName string
	PfmName string
	// Class is "performance" or "efficiency".
	Class string
	// CPUs are the logical CPUs of this type.
	CPUs []int
	// MaxMHz is the maximum frequency.
	MaxMHz float64
}

// HardwareInfo is the PAPI_get_hardware_info view of the machine.
type HardwareInfo struct {
	// Vendor and Model identify the processor.
	Vendor string
	Model  string
	// Arch is "x86_64" or "aarch64".
	Arch string
	// Family, ModelID, Stepping are the identification triple — note that
	// on Intel hybrids it is shared by all core types.
	Family, ModelID, Stepping int
	// TotalCPUs and Cores count hardware threads and physical cores.
	TotalCPUs int
	Cores     int
	// Hybrid reports whether multiple core types were detected. Legacy
	// mode cannot tell (the V.1 gap) and always reports false with no
	// CoreTypes.
	Hybrid bool
	// CoreTypes describes each core type (patched mode only).
	CoreTypes []CoreTypeInfo
	// MemGB is installed memory.
	MemGB float64
}

// HardwareInfo implements PAPI_get_hardware_info with the detailed
// processor reporting of section V.1.
func (l *Library) HardwareInfo() HardwareInfo {
	m := l.sys.HW
	info := HardwareInfo{
		Vendor:    m.Vendor,
		Model:     m.CPUModel,
		Arch:      m.Arch,
		Family:    m.Family,
		ModelID:   m.Model,
		Stepping:  m.Stepping,
		TotalCPUs: m.NumCPUs(),
		Cores:     m.NumCores(),
		MemGB:     m.MemoryGB,
	}
	if l.legacy {
		return info
	}
	info.Hybrid = m.Hybrid()
	for i := range m.Types {
		t := &m.Types[i]
		info.CoreTypes = append(info.CoreTypes, CoreTypeInfo{
			Name:      t.Name,
			Microarch: t.Microarch,
			PMUName:   t.PMU.Name,
			PfmName:   t.PfmName,
			Class:     t.Class.String(),
			CPUs:      m.CPUsOfType(t.Name),
			MaxMHz:    t.MaxFreqMHz,
		})
	}
	return info
}

// SysDetectResult is the sysdetect component's view: what the detection
// heuristics of section IV.B find on this machine.
type SysDetectResult struct {
	// Strategy names the heuristic that produced the grouping ("pmu",
	// "capacity", "cpuinfo", "maxfreq").
	Strategy string
	// Groups are the detected CPU groups.
	Groups []sysfs.Group
}

// SysDetect runs the detection heuristics against the machine's sysfs
// tree, built for the call.
func (l *Library) SysDetect() (SysDetectResult, error) {
	groups, strategy, err := sysfs.DetectCoreTypes(sysfs.New(l.sys.HW, l.sys))
	if err != nil {
		return SysDetectResult{}, err
	}
	return SysDetectResult{Strategy: strategy, Groups: groups}, nil
}

// componentKey scopes the one-running-EventSet rule: per component and,
// for per-task components, per attached thread.
type componentKey struct {
	component string
	pid       int
}

// componentOf classifies a pfm PMU model into a PAPI component.
func (l *Library) componentOf(pmuName string) string {
	if pmuName == "rapl" {
		return "rapl"
	}
	if pmuName == "perf" {
		return "cpu" // software events ride the cpu component
	}
	for i := range l.sys.HW.Uncore {
		if l.sys.HW.Uncore[i].PfmName == pmuName {
			return "uncore"
		}
	}
	return "cpu"
}

// cpuWide reports whether events of the PMU model are opened CPU-wide
// (RAPL and uncore PMUs have no per-task context).
func (l *Library) cpuWide(pmuName string) bool {
	return l.componentOf(pmuName) != "cpu"
}

// RealUsec mirrors PAPI_get_real_usec: the machine's wall time in
// microseconds (simulated time here).
func (l *Library) RealUsec() int64 {
	return int64(l.sys.Now() * 1e6)
}

// RealNsec mirrors PAPI_get_real_nsec.
func (l *Library) RealNsec() int64 {
	return int64(l.sys.Now() * 1e9)
}

// NumCoreGroups returns how many perf event groups a running EventSet of
// all default PMUs would need — 1 on homogeneous machines, one per core
// type on hybrids.
func (l *Library) NumCoreGroups() int { return len(l.defaultPMUs()) }

// EventCode is the opaque integer form of a native event, mirroring
// PAPI's event codes: the kernel PMU type in the high word and the raw
// perf config in the low word.
type EventCode uint64

// NameToCode resolves a native event name to its opaque code
// (PAPI_event_name_to_code).
func (l *Library) NameToCode(name string) (EventCode, error) {
	info, err := l.pfm.ParseEvent(name)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNoEvent, err)
	}
	return EventCode(uint64(info.Attr.Type)<<48 | info.Attr.Config&0xFFFFFFFFFFFF), nil
}

// CodeToName resolves an opaque event code back to its canonical name
// (PAPI_event_code_to_name).
func (l *Library) CodeToName(code EventCode) (string, error) {
	perfType := uint32(code >> 48)
	config := uint64(code) & 0xFFFFFFFFFFFF
	for _, pmu := range l.pfm.PMUs() {
		if pmu.PerfType != perfType {
			continue
		}
		names, err := l.pfm.EventsForPMU(pmu.Name)
		if err != nil {
			continue
		}
		for _, n := range names {
			info, err := l.pfm.ParseEvent(n)
			if err != nil {
				continue
			}
			if info.Attr.Config == config {
				return info.FullName, nil
			}
		}
	}
	return "", fmt.Errorf("%w: code %#x", ErrNoEvent, uint64(code))
}
