package scenario

import (
	"fmt"
	"io"
	"strings"

	"hetpapi/internal/hw"
	"hetpapi/internal/workload"
)

// Reference returns the standard golden-trace scenarios: one per machine
// model, each exercising the subsystems that model's paper results hinge
// on. Their digests are committed under testdata/golden/ and re-checked by
// `go test ./internal/scenario`; regenerate after intentional behavior
// changes with `go test ./internal/scenario -update`.
//
// The problem sizes are deliberately small — each scenario simulates a few
// seconds to a couple of minutes of machine time so the whole suite stays
// inside an ordinary test run.
func Reference() []Spec {
	return []Spec{
		{
			// The paper's desktop: HPL pinned one-thread-per-P-core
			// (logical CPUs 0,2,..,14 are the SMT-0 threads of the eight
			// P-cores), exercising sim+sched+dvfs+power under the
			// 65 W / 219 W RAPL machinery.
			Name:            "raptorlake-hpl-pcores",
			Machine:         "raptorlake",
			Seed:            11,
			MaxSeconds:      120,
			SamplePeriodSec: 0.25,
			Workloads: []WorkloadSpec{{
				Kind:     WorkloadHPL,
				Name:     "hpl",
				CPUs:     []int{0, 2, 4, 6, 8, 10, 12, 14},
				N:        16384,
				NB:       192,
				Strategy: workload.OpenBLASx86(),
				Seed:     1,
			}},
		},
		{
			// The passively cooled board: HPL on the two A72 big cores
			// with an injected heat spike, driving the step_wise thermal
			// throttle that produces the paper's Figure 3 collapse.
			Name:            "orangepi-thermal-throttle",
			Machine:         "orangepi800",
			Seed:            5,
			MaxSeconds:      300,
			SamplePeriodSec: 0.25,
			Workloads: []WorkloadSpec{{
				Kind:     WorkloadHPL,
				Name:     "hpl-big",
				CPUs:     []int{4, 5},
				N:        8192,
				NB:       128,
				Strategy: workload.OpenBLASArm(),
				Seed:     1,
			}},
			Injects: []Inject{
				{AtSec: 2, Kind: InjectHeat, HeatJ: 40},
			},
		},
		{
			// The tri-gear phone SoC: a migrating instruction loop plus a
			// pinned memory streamer, with a mid-run frequency cap on the
			// Performance-class cores and a forced migration — the
			// injection paths under a three-PMU topology.
			Name:            "dimensity-mixed-injects",
			Machine:         "dimensity9000",
			Seed:            23,
			MaxSeconds:      12,
			SamplePeriodSec: 0.5,
			Workloads: []WorkloadSpec{
				{Kind: WorkloadLoop, Name: "loop", InstrPerRep: 1e6, Reps: 20000},
				{Kind: WorkloadStream, Name: "stream", CPUs: []int{0, 1, 2, 3}, Instructions: 4e9, LLCMissRate: 0.4, Seed: 9},
				{Kind: WorkloadSpin, Name: "late-spin", Seconds: 2, StartSec: 3, CPUs: []int{7}},
			},
			Injects: []Inject{
				{AtSec: 1, Kind: InjectFreqCap, Class: hw.Performance, MHz: 1800},
				{AtSec: 1.5, Kind: InjectMigrate, Workload: 1, CPUs: []int{2, 3}},
				{AtSec: 3, Kind: InjectFreqCap, Class: hw.Performance, MHz: 0},
			},
		},
		{
			// Fault scenario: mid-run NMI-watchdog counter steal on the
			// P-core PMU while a multiplexed PAPI probe measures a pinned
			// HPL run. The probe's cycles group deschedules during the
			// steal window, so its readings must show the time-scaled
			// estimate with a nonzero error bound — and stay monotonic —
			// until the release.
			Name:            "raptorlake-watchdog-steal",
			Machine:         "raptorlake",
			Seed:            7,
			MaxSeconds:      60,
			SamplePeriodSec: 0.25,
			Workloads: []WorkloadSpec{{
				Kind:     WorkloadHPL,
				Name:     "hpl",
				CPUs:     []int{0, 2, 4, 6},
				N:        12288,
				NB:       128,
				Strategy: workload.OpenBLASx86(),
				Seed:     1,
			}},
			Measure: &MeasureSpec{
				Workload:  0,
				Events:    []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"},
				Multiplex: true,
			},
			Injects: []Inject{
				{AtSec: 1.5, Kind: InjectCounterSteal, Class: hw.Performance, DurSec: 2},
			},
		},
		{
			// Fault scenario: the big.LITTLE board under CPU hotplug. A
			// counter steal on the LITTLE PMU covers the probe's start, so
			// the first Start attempts defer with EBUSY until the release;
			// mid-run one A53 is hotplugged off (killing the harness's
			// CPU-wide descriptors there) and later brought back.
			Name:            "biglittle-hotplug",
			Machine:         "orangepi800",
			Seed:            13,
			MaxSeconds:      15,
			SamplePeriodSec: 0.25,
			Workloads: []WorkloadSpec{{
				Kind:        WorkloadLoop,
				Name:        "little-loop",
				CPUs:        []int{0, 1, 2, 3},
				InstrPerRep: 1e6,
				Reps:        6000,
			}},
			Measure: &MeasureSpec{
				Workload: 0,
				Events:   []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"},
				StartSec: 0.1,
			},
			Injects: []Inject{
				{AtSec: 0, Kind: InjectCounterSteal, Class: hw.Efficiency, DurSec: 0.5},
				{AtSec: 2, Kind: InjectHotplugOff, CPU: 1},
				{AtSec: 3.5, Kind: InjectHotplugOn, CPU: 1},
			},
		},
		{
			// The homogeneous baseline: SMT contention plus a mid-run
			// power-limit drop on a single-PMU machine.
			Name:            "homogeneous-powercap",
			Machine:         "homogeneous",
			Seed:            3,
			MaxSeconds:      10,
			SamplePeriodSec: 0.5,
			Workloads: []WorkloadSpec{
				{Kind: WorkloadLoop, Name: "loop-a", CPUs: []int{0, 1}, InstrPerRep: 1e6, Reps: 30000},
				{Kind: WorkloadSpin, Name: "spin", CPUs: []int{2}, Seconds: 6},
			},
			Injects: []Inject{
				{AtSec: 2, Kind: InjectPowerLimit, PL1W: 35, PL2W: 60},
			},
		},
	}
}

// WriteList writes one line per reference scenario: its name, machine
// model and run length. It is the `list` subcommand of hetpapitrace and
// hetpapiprof.
func WriteList(w io.Writer) error {
	for _, spec := range Reference() {
		if _, err := fmt.Fprintf(w, "%-28s machine=%-14s %gs\n", spec.Name, spec.Machine, spec.MaxSeconds); err != nil {
			return err
		}
	}
	return nil
}

// Lookup returns the reference scenario with the given name. Its error
// names every known scenario.
func Lookup(name string) (Spec, error) {
	all := Reference()
	names := make([]string, len(all))
	for i, spec := range all {
		if spec.Name == name {
			return spec, nil
		}
		names[i] = spec.Name
	}
	return Spec{}, fmt.Errorf("unknown scenario %q (known: %s)", name, strings.Join(names, ", "))
}
