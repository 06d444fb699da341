// Package trace implements the paper's monitoring methodology (the
// mon_hpl.py artifact): a poller that samples per-core frequency, thermal
// zone temperature and RAPL energy at a fixed rate (1 Hz in the paper)
// while a workload runs, plus the multi-run averaging used to produce the
// figures.
//
// Fidelity note: the recorder reads the values from sysfs.Live, the exact
// integers the machine's scaling_cur_freq, thermal_zoneN/temp and
// intel-rapl:0/energy_uj files render, pinned by the recorder test. Wall
// power (the WattsUpPro on the OrangePi, which has no RAPL) is the one
// value read from the external meter model.
package trace

import (
	"hetpapi/internal/sim"
)

// Sample is one polling interval's readings.
type Sample struct {
	// TimeSec is the simulated time of the sample, relative to the
	// recorder's start.
	TimeSec float64
	// FreqMHz is the per-logical-CPU frequency.
	FreqMHz []float64
	// TempC is the package thermal zone temperature.
	TempC float64
	// EnergyJ is the cumulative RAPL package energy (0 on machines
	// without RAPL).
	EnergyJ float64
	// PowerW is the average package power over the last interval, derived
	// from the energy counter delta the way monitoring scripts do. On
	// machines without RAPL it is the wall meter power instead.
	PowerW float64
	// WallW is the AC-side wall power.
	WallW float64
}

// Recorder samples a machine at a fixed period. It does not step the
// machine: whoever owns the run loop calls Poll after each Step.
type Recorder struct {
	s       *sim.Machine
	period  float64
	samples []Sample

	startTime  float64
	lastSample float64
	lastEnergy float64
}

// NewRecorder returns a recorder sampling every periodSec seconds (the
// paper uses 1 Hz). It takes the first sample at once.
func NewRecorder(s *sim.Machine, periodSec float64) *Recorder {
	if periodSec <= 0 {
		periodSec = 1
	}
	r := &Recorder{s: s, period: periodSec, startTime: s.Now()}
	r.take()
	return r
}

// Samples returns the collected samples.
func (r *Recorder) Samples() []Sample { return r.samples }

// Poll takes a sample if a period has passed since the last one.
func (r *Recorder) Poll() {
	if r.s.Now()-r.lastSample >= r.period-1e-12 {
		r.take()
	}
}

func (r *Recorder) take() {
	m := r.s.HW
	smp := Sample{
		TimeSec: r.s.Now() - r.startTime,
		FreqMHz: make([]float64, m.NumCPUs()),
	}
	for cpu := range smp.FreqMHz {
		smp.FreqMHz[cpu] = float64(r.s.CurFreqKHz(cpu)) / 1000
	}
	smp.TempC = float64(r.s.ZoneTempMilliC()) / 1000
	smp.WallW = r.s.Power.WallPowerW()
	if m.Power.HasRAPL {
		smp.EnergyJ = float64(r.s.EnergyUJ()) / 1e6
		dt := r.s.Now() - r.lastSample
		if len(r.samples) > 0 && dt > 0 {
			smp.PowerW = (smp.EnergyJ - r.lastEnergy) / dt
		} else {
			smp.PowerW = r.s.Power.PkgPowerW()
		}
		r.lastEnergy = smp.EnergyJ
	} else {
		smp.PowerW = smp.WallW
	}
	r.samples = append(r.samples, smp)
	r.lastSample = r.s.Now()
}

// FreqSeries extracts one CPU's frequency series from samples.
func FreqSeries(samples []Sample, cpu int) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if cpu < len(s.FreqMHz) {
			out = append(out, s.FreqMHz[cpu])
		}
	}
	return out
}

// MeanFreqSeries extracts the mean frequency over a CPU set per sample.
func MeanFreqSeries(samples []Sample, cpus []int) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		var sum float64
		n := 0
		for _, cpu := range cpus {
			if cpu < len(s.FreqMHz) {
				sum += s.FreqMHz[cpu]
				n++
			}
		}
		if n > 0 {
			out = append(out, sum/float64(n))
		}
	}
	return out
}

// PowerSeries extracts the package power series.
func PowerSeries(samples []Sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		out = append(out, s.PowerW)
	}
	return out
}

// TempSeries extracts the temperature series.
func TempSeries(samples []Sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		out = append(out, s.TempC)
	}
	return out
}

// AverageRuns aligns several runs' sample series by index and averages
// them elementwise, producing the "averaged run" the paper's
// process_runs.py builds from N identical runs. The result is truncated to
// the shortest run.
func AverageRuns(runs [][]Sample) []Sample {
	if len(runs) == 0 {
		return nil
	}
	minLen := len(runs[0])
	for _, r := range runs[1:] {
		if len(r) < minLen {
			minLen = len(r)
		}
	}
	if minLen == 0 {
		return nil
	}
	ncpu := len(runs[0][0].FreqMHz)
	out := make([]Sample, minLen)
	for i := 0; i < minLen; i++ {
		avg := Sample{TimeSec: runs[0][i].TimeSec, FreqMHz: make([]float64, ncpu)}
		for _, r := range runs {
			s := r[i]
			for c := 0; c < ncpu && c < len(s.FreqMHz); c++ {
				avg.FreqMHz[c] += s.FreqMHz[c]
			}
			avg.TempC += s.TempC
			avg.EnergyJ += s.EnergyJ
			avg.PowerW += s.PowerW
			avg.WallW += s.WallW
		}
		n := float64(len(runs))
		for c := range avg.FreqMHz {
			avg.FreqMHz[c] /= n
		}
		avg.TempC /= n
		avg.EnergyJ /= n
		avg.PowerW /= n
		avg.WallW /= n
		out[i] = avg
	}
	return out
}
