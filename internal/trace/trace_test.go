package trace

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"hetpapi/internal/hw"
	"hetpapi/internal/sim"
	"hetpapi/internal/stats"
	"hetpapi/internal/sysfs"
	"hetpapi/internal/workload"
)

// record samples s every periodSec for seconds of simulated time,
// polling after every Step the way the scenario harness does.
func record(s *sim.Machine, periodSec, seconds float64) *Recorder {
	r := NewRecorder(s, periodSec)
	defer s.AddStepHook(func(*sim.Machine) { r.Poll() })()
	s.RunUntil(func() bool { return false }, seconds)
	return r
}

func TestRecorderSamplesAtPeriod(t *testing.T) {
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	spin := workload.NewSpin("w", 100)
	s.Spawn(spin, hw.NewCPUSet(0))
	r := record(s, 1.0, 10.5)
	got := len(r.Samples())
	if got < 10 || got > 12 {
		t.Fatalf("collected %d samples over 10.5 s at 1 Hz", got)
	}
	for i := 1; i < got; i++ {
		dt := r.Samples()[i].TimeSec - r.Samples()[i-1].TimeSec
		if math.Abs(dt-1.0) > 0.01 {
			t.Fatalf("sample spacing %g, want 1.0", dt)
		}
	}
}

func TestRecorderReadsThroughSysfs(t *testing.T) {
	s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
	s.Spawn(workload.NewSpin("w", 100), hw.NewCPUSet(0))
	r := record(s, 0.5, 5)
	last := r.Samples()[len(r.Samples())-1]
	if last.FreqMHz[0] < 800 {
		t.Errorf("cpu0 freq = %g", last.FreqMHz[0])
	}
	if last.TempC <= 25 {
		t.Errorf("temp = %g, should have risen", last.TempC)
	}
	if last.EnergyJ <= 0 {
		t.Errorf("energy = %g", last.EnergyJ)
	}
	// Power derived from energy deltas should be near the model's power.
	if last.PowerW <= 0 || math.Abs(last.PowerW-s.Power.PkgPowerW()) > 10 {
		t.Errorf("derived power %g vs model %g", last.PowerW, s.Power.PkgPowerW())
	}
	if last.WallW <= last.PowerW {
		t.Errorf("wall power %g must exceed package power %g", last.WallW, last.PowerW)
	}
}

func TestRecorderOnMachineWithoutRAPL(t *testing.T) {
	s := sim.New(hw.OrangePi800(), sim.DefaultConfig())
	s.Spawn(workload.NewSpin("w", 100), hw.NewCPUSet(4))
	r := record(s, 0.5, 3)
	last := r.Samples()[len(r.Samples())-1]
	if last.EnergyJ != 0 {
		t.Error("no RAPL energy expected on the OrangePi")
	}
	if last.PowerW != last.WallW {
		t.Error("without RAPL the power series is the wall meter")
	}
	if last.WallW <= 0 {
		t.Error("wall meter must read something")
	}
}

// TestRecorderMatchesSysfsFiles pins the recorder's fidelity: on every
// reference model, each sample must equal what the machine's
// scaling_cur_freq, thermal_zoneN/temp and energy_uj files read at the
// tick it was taken.
func TestRecorderMatchesSysfsFiles(t *testing.T) {
	for _, md := range hw.Models {
		t.Run(md.Name, func(t *testing.T) {
			s := sim.New(md.Make(), sim.DefaultConfig())
			last := s.HW.NumCPUs() - 1
			// One busy CPU per end of the machine, finishing at
			// different times, so CPUs, the zone and the energy counter
			// all move and disagree.
			s.Spawn(workload.NewSpin("a", 1), hw.NewCPUSet(0))
			s.Spawn(workload.NewSpin("b", 2), hw.NewCPUSet(last))
			fsys := sysfs.New(s.HW, s)
			readInt := func(path string) float64 {
				t.Helper()
				raw, err := fsys.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				v, err := strconv.ParseUint(raw, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return float64(v)
			}
			check := func(smp Sample) {
				t.Helper()
				for cpu, got := range smp.FreqMHz {
					want := readInt(fmt.Sprintf("sys/devices/system/cpu/cpu%d/cpufreq/scaling_cur_freq", cpu)) / 1000
					if got != want {
						t.Fatalf("t=%gs cpu%d: recorder %v MHz, scaling_cur_freq %v", smp.TimeSec, cpu, got, want)
					}
				}
				temp := readInt(fmt.Sprintf("sys/class/thermal/thermal_zone%d/temp", s.HW.Thermal.ZoneIndex)) / 1000
				if smp.TempC != temp {
					t.Fatalf("t=%gs: recorder %v degC, zone temp %v", smp.TimeSec, smp.TempC, temp)
				}
				const energy = "sys/class/powercap/intel-rapl:0/energy_uj"
				if !s.HW.Power.HasRAPL {
					if fsys.Exists(energy) || smp.EnergyJ != 0 {
						t.Fatalf("t=%gs: no RAPL, yet energy_uj exists=%v and recorder %v J",
							smp.TimeSec, fsys.Exists(energy), smp.EnergyJ)
					}
					return
				}
				if want := readInt(energy) / 1e6; smp.EnergyJ != want {
					t.Fatalf("t=%gs: recorder %v J, energy_uj %v", smp.TimeSec, smp.EnergyJ, want)
				}
			}
			r := NewRecorder(s, 0.1)
			check(r.Samples()[0])
			defer s.AddStepHook(func(*sim.Machine) {
				n := len(r.Samples())
				r.Poll()
				if len(r.Samples()) > n {
					check(r.Samples()[n])
				}
			})()
			s.RunUntil(func() bool { return false }, 3)
			if got := len(r.Samples()); got < 30 {
				t.Fatalf("%d samples over 3 s at 10 Hz", got)
			}
		})
	}
}

func TestSeriesExtractors(t *testing.T) {
	samples := []Sample{
		{TimeSec: 0, FreqMHz: []float64{1000, 2000}, TempC: 30, PowerW: 50},
		{TimeSec: 1, FreqMHz: []float64{1100, 2100}, TempC: 31, PowerW: 55},
	}
	if got := FreqSeries(samples, 1); len(got) != 2 || got[1] != 2100 {
		t.Errorf("FreqSeries = %v", got)
	}
	if got := MeanFreqSeries(samples, []int{0, 1}); got[0] != 1500 {
		t.Errorf("MeanFreqSeries = %v", got)
	}
	if got := PowerSeries(samples); got[1] != 55 {
		t.Errorf("PowerSeries = %v", got)
	}
	if got := TempSeries(samples); got[0] != 30 {
		t.Errorf("TempSeries = %v", got)
	}
	if got := FreqSeries(samples, 99); len(got) != 0 {
		t.Errorf("out-of-range cpu must give empty series: %v", got)
	}
}

func TestAverageRuns(t *testing.T) {
	run1 := []Sample{
		{TimeSec: 0, FreqMHz: []float64{1000}, TempC: 30, PowerW: 40, EnergyJ: 0, WallW: 50},
		{TimeSec: 1, FreqMHz: []float64{2000}, TempC: 40, PowerW: 60, EnergyJ: 60, WallW: 70},
	}
	run2 := []Sample{
		{TimeSec: 0, FreqMHz: []float64{3000}, TempC: 50, PowerW: 80, EnergyJ: 0, WallW: 90},
		{TimeSec: 1, FreqMHz: []float64{4000}, TempC: 60, PowerW: 100, EnergyJ: 100, WallW: 110},
		{TimeSec: 2, FreqMHz: []float64{5000}, TempC: 70, PowerW: 120, EnergyJ: 220, WallW: 130},
	}
	avg := AverageRuns([][]Sample{run1, run2})
	if len(avg) != 2 {
		t.Fatalf("averaged length %d, want 2 (shortest run)", len(avg))
	}
	if avg[0].FreqMHz[0] != 2000 || avg[1].FreqMHz[0] != 3000 {
		t.Errorf("freq averaging wrong: %+v", avg)
	}
	if avg[1].TempC != 50 || avg[1].PowerW != 80 {
		t.Errorf("scalar averaging wrong: %+v", avg[1])
	}
	if AverageRuns(nil) != nil {
		t.Error("empty input must give nil")
	}
	if AverageRuns([][]Sample{{}}) != nil {
		t.Error("empty run must give nil")
	}
}

func TestAveragedRunsOfIdenticalSeedsAreIdentical(t *testing.T) {
	collect := func() []Sample {
		s := sim.New(hw.RaptorLake(), sim.DefaultConfig())
		s.Spawn(workload.NewSpin("w", 5), hw.NewCPUSet(0))
		return record(s, 1, 5).Samples()
	}
	a, b := collect(), collect()
	avg := AverageRuns([][]Sample{a, b})
	for i := range avg {
		if math.Abs(avg[i].PowerW-a[i].PowerW) > 1e-9 {
			t.Fatalf("identical runs should average to themselves at %d", i)
		}
	}
	if stats.Mean(PowerSeries(avg)) <= 0 {
		t.Fatal("power series empty")
	}
}
