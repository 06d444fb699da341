package sim

import (
	"math"
	"testing"
	"testing/quick"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
	"hetpapi/internal/perfevent"
	"hetpapi/internal/power"
	"hetpapi/internal/sysfs"
	"hetpapi/internal/workload"
)

// runHPL spawns one HPL worker pinned to each of the given CPUs and runs
// the simulation to completion, returning the benchmark Gflops.
func runHPL(t *testing.T, s *Machine, strategy workload.Strategy, cpus []int, n int) float64 {
	t.Helper()
	h, err := workload.NewHPL(workload.HPLConfig{
		N: n, NB: 192, Threads: len(cpus), Strategy: strategy, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := s.Now()
	for i, task := range h.Threads() {
		s.Spawn(task, hw.NewCPUSet(cpus[i]))
	}
	if !s.RunUntil(h.Done, 3600) {
		t.Fatal("HPL did not finish within an hour of simulated time")
	}
	return h.Gflops(s.Now() - start)
}

func TestHPLCompletesOnFullStack(t *testing.T) {
	s := New(hw.RaptorLake(), DefaultConfig())
	g := runHPL(t, s, workload.IntelMKL(), hw.RaptorLake().FirstCPUPerCore(), 6144)
	// A short run rides the PL2 turbo spike, so it may exceed the paper's
	// sustained 457 Gflops; it must still sit below theoretical peak.
	if g < 100 || g > hw.RaptorLake().PeakGflops(hw.RaptorLake().FirstCPUPerCore()) {
		t.Fatalf("all-core Gflops = %.1f, outside plausible range", g)
	}
}

func TestTableIIOrdering(t *testing.T) {
	// The four central Table II relations, on the full simulation stack
	// (DVFS + power caps + scheduler + workload):
	//   Intel E-only < Intel P-only < Intel all-core
	//   OpenBLAS all-core < OpenBLAS P-only (stragglers)
	m := hw.RaptorLake()
	pCores := m.CPUsOfType("P-core")
	var pFirst []int
	for _, c := range pCores {
		if m.CPUs[c].SMTIndex == 0 {
			pFirst = append(pFirst, c)
		}
	}
	eCores := m.CPUsOfType("E-core")
	all := m.FirstCPUPerCore()
	const n = 20160

	intelE := runHPL(t, New(hw.RaptorLake(), DefaultConfig()), workload.IntelMKL(), eCores, n)
	intelP := runHPL(t, New(hw.RaptorLake(), DefaultConfig()), workload.IntelMKL(), pFirst, n)
	intelAll := runHPL(t, New(hw.RaptorLake(), DefaultConfig()), workload.IntelMKL(), all, n)
	oblasP := runHPL(t, New(hw.RaptorLake(), DefaultConfig()), workload.OpenBLASx86(), pFirst, n)
	oblasAll := runHPL(t, New(hw.RaptorLake(), DefaultConfig()), workload.OpenBLASx86(), all, n)

	t.Logf("Intel: E=%.1f P=%.1f all=%.1f; OpenBLAS: P=%.1f all=%.1f",
		intelE, intelP, intelAll, oblasP, oblasAll)

	if !(intelE < intelP) {
		t.Errorf("Intel E-only %.1f !< P-only %.1f", intelE, intelP)
	}
	if !(intelAll > intelP) {
		t.Errorf("Intel all-core %.1f !> P-only %.1f (hybrid-aware build must win with E-cores)", intelAll, intelP)
	}
	if !(oblasAll < oblasP) {
		t.Errorf("OpenBLAS all-core %.1f !< P-only %.1f (stragglers must hurt)", oblasAll, oblasP)
	}
	if !(intelAll > oblasAll) {
		t.Errorf("Intel all-core %.1f !> OpenBLAS all-core %.1f", intelAll, oblasAll)
	}
}

func TestFrequencySpikeThenPlateau(t *testing.T) {
	// Figure 1/2 shape: the run starts at high frequency under PL2, then
	// settles to the PL1 plateau.
	m := hw.RaptorLake()
	s := New(m, DefaultConfig())
	h, _ := workload.NewHPL(workload.HPLConfig{
		N: 38400, NB: 192, Threads: 16, Strategy: workload.IntelMKL(), Seed: 1,
	})
	for i, task := range h.Threads() {
		s.Spawn(task, hw.NewCPUSet(m.FirstCPUPerCore()[i]))
	}
	var earlyFreq, lateFreq, latePower float64
	s.RunFor(1.0)
	earlyFreq = s.CurFreqMHz(0)
	earlyPower := s.Power.PkgPowerW()
	s.RunFor(30)
	lateFreq = s.CurFreqMHz(0)
	latePower = s.Power.PkgPowerW()

	if earlyFreq < 4000 {
		t.Errorf("early P frequency %.0f MHz; expected a high spike under PL2", earlyFreq)
	}
	if h.Done() {
		t.Fatal("run finished before the plateau was sampled; enlarge N")
	}
	if earlyFreq <= lateFreq {
		t.Errorf("no spike: early %.0f MHz <= late %.0f MHz", earlyFreq, lateFreq)
	}
	if earlyPower < m.Power.PL1Watts*1.5 {
		t.Errorf("early power %.1f W; expected well above PL1 during the spike", earlyPower)
	}
	if lateFreq > 3500 {
		t.Errorf("late P frequency %.0f MHz; expected PL1 plateau below 3.5 GHz", lateFreq)
	}
	if math.Abs(latePower-m.Power.PL1Watts) > 6 {
		t.Errorf("late power %.1f W; expected ~PL1 (%.0f W)", latePower, m.Power.PL1Watts)
	}
	if s.Thermal.TempC() >= m.Thermal.TjMaxC {
		t.Errorf("package hit TjMax; paper says power limits prevent thermal throttling")
	}
}

func TestInstructionConservationThroughKernel(t *testing.T) {
	// Open one INST_RETIRED event per PMU on a migrating task; the sum of
	// the two counters must equal the instructions the task retired.
	m := hw.RaptorLake()
	cfg := DefaultConfig()
	cfg.Sched.MigrateToEffProb = 0.3
	cfg.Sched.MigrateToPerfProb = 0.3
	cfg.Sched.Seed = 5
	s := New(m, cfg)

	loop := workload.NewInstructionLoop("hybrid", 1e6, 3000)
	p := s.Spawn(loop, hw.AllCPUs(m))

	glc := events.LookupPMU("adl_glc").Lookup("INST_RETIRED")
	grt := events.LookupPMU("adl_grt").Lookup("INST_RETIRED")
	pFD, err := s.Kernel.Open(perfevent.Attr{
		Type:   m.TypeByName("P-core").PMU.PerfType,
		Config: events.Encode(glc.Code, glc.DefaultUmask().Bits),
	}, p.PID, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	eFD, err := s.Kernel.Open(perfevent.Attr{
		Type:   m.TypeByName("E-core").PMU.PerfType,
		Config: events.Encode(grt.Code, grt.DefaultUmask().Bits),
	}, p.PID, -1, -1)
	if err != nil {
		t.Fatal(err)
	}

	if !s.RunUntil(loop.Done, 60) {
		t.Fatal("loop did not finish")
	}
	pc, _ := s.Kernel.Read(pFD)
	ec, _ := s.Kernel.Read(eFD)
	total := loop.TotalInstructions()
	sum := float64(pc.Value + ec.Value)
	if math.Abs(sum-total) > total*1e-6 {
		t.Fatalf("P(%d) + E(%d) = %g != retired %g", pc.Value, ec.Value, sum, total)
	}
	if pc.Value == 0 || ec.Value == 0 {
		t.Fatalf("expected both core types to run the task: P=%d E=%d", pc.Value, ec.Value)
	}
	if pc.Value <= ec.Value {
		t.Errorf("task should spend more instructions on P-cores: P=%d E=%d", pc.Value, ec.Value)
	}
}

func TestRAPLEnergyMatchesIntegral(t *testing.T) {
	m := hw.RaptorLake()
	s := New(m, DefaultConfig())
	fd, err := s.Kernel.Open(perfevent.Attr{
		Type: m.Power.RAPLPerfType, Config: events.Encode(0x02, 0),
	}, -1, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn(workload.NewSpin("burn", 5), hw.NewCPUSet(0))
	s.RunFor(5)
	c, _ := s.Kernel.Read(fd)
	gotJ := float64(c.Value) * m.Power.EnergyUnitJ
	wantJ := s.Power.EnergyJ(power.DomainPkg)
	if math.Abs(gotJ-wantJ) > 0.01*wantJ+0.01 {
		t.Fatalf("RAPL event %g J != model %g J", gotJ, wantJ)
	}
	if gotJ <= 0 {
		t.Fatal("no energy accumulated")
	}
}

func TestOrangePiBigThrottles(t *testing.T) {
	// Figure 3: HPL on the two big cores ramps to 1.8 GHz, then thermal
	// throttling pulls them down within seconds; LITTLE-only sustains.
	m := hw.OrangePi800()
	s := New(m, DefaultConfig())
	h, _ := workload.NewHPL(workload.HPLConfig{
		N: 10240, NB: 128, Threads: 2, Strategy: workload.OpenBLASArm(), Seed: 1,
	})
	bigs := m.CPUsOfType("big")
	for i, task := range h.Threads() {
		s.Spawn(task, hw.NewCPUSet(bigs[i]))
	}
	s.RunFor(0.5)
	if f := s.CurFreqMHz(bigs[0]); f < 1700 {
		t.Errorf("big core should start near max: %.0f MHz", f)
	}
	s.RunFor(30)
	if h.Done() {
		t.Fatal("big-core run finished too early; enlarge N")
	}
	f := s.CurFreqMHz(bigs[0])
	if f > 1500 {
		t.Errorf("big core frequency %.0f MHz after 30s; expected thermal throttling", f)
	}
	if s.Thermal.TempC() < 75 {
		t.Errorf("SoC only reached %.1f degC; should be near the 85 degC trip", s.Thermal.TempC())
	}

	// LITTLE-only: no (significant) throttling.
	s2 := New(m, DefaultConfig())
	h2, _ := workload.NewHPL(workload.HPLConfig{
		N: 10240, NB: 128, Threads: 4, Strategy: workload.OpenBLASArm(), Seed: 1,
	})
	littles := m.CPUsOfType("LITTLE")
	for i, task := range h2.Threads() {
		s2.Spawn(task, hw.NewCPUSet(littles[i]))
	}
	s2.RunFor(30)
	if h2.Done() {
		t.Fatal("LITTLE-core run finished too early; enlarge N")
	}
	if f := s2.CurFreqMHz(littles[0]); f < 1300 {
		t.Errorf("LITTLE cores throttled to %.0f MHz; they should sustain near max", f)
	}
}

func TestOrangePiLittleBeatsBig(t *testing.T) {
	// Figure 4's headline: four LITTLE cores complete HPL faster than two
	// thermally-throttled big cores.
	m := hw.OrangePi800()
	const n = 12288
	gBig := runHPL(t, New(hw.OrangePi800(), DefaultConfig()), workload.OpenBLASArm(), m.CPUsOfType("big"), n)
	gLittle := runHPL(t, New(hw.OrangePi800(), DefaultConfig()), workload.OpenBLASArm(), m.CPUsOfType("LITTLE"), n)
	t.Logf("OrangePi: 2 big = %.2f Gflops, 4 LITTLE = %.2f Gflops", gBig, gLittle)
	if gLittle <= gBig {
		t.Errorf("4 LITTLE (%.2f) must beat 2 big (%.2f)", gLittle, gBig)
	}
}

func TestSettleCoolsAndRefillsBudget(t *testing.T) {
	m := hw.RaptorLake()
	s := New(m, DefaultConfig())
	s.Spawn(workload.NewSpin("hot", 20), hw.NewCPUSet(0))
	s.RunFor(20)
	s.Thermal.SetTempC(70)
	waited := s.Settle(35)
	if s.Thermal.TempC() > 35.1 {
		t.Fatalf("settled at %.1f degC, want <= 35", s.Thermal.TempC())
	}
	if waited <= 0 {
		t.Fatal("settling must take simulated time")
	}
	if s.Power.CapW() != m.Power.PL2Watts {
		t.Errorf("turbo budget not refilled after settling: cap = %g", s.Power.CapW())
	}
}

// spendTurboBudget runs an all-core HPL on a Raptor Lake, which spends
// most of the PL2 budget, then cools the package to 30 degC, below any settle
// target: a machine a temperature-only settle would hand on as it is.
func spendTurboBudget(t *testing.T) *Machine {
	t.Helper()
	m := hw.RaptorLake()
	s := New(m, DefaultConfig())
	runHPL(t, s, workload.IntelMKL(), m.FirstCPUPerCore(), 19200)
	if left, full := s.Power.TurboBudgetJ(), s.Power.Spec().PL2BudgetJ; left > full/2 {
		t.Fatalf("turbo budget %.1f of %.1f J left after an all-core HPL", left, full)
	}
	s.Thermal.SetTempC(30)
	return s
}

func TestSettleWaitsForTurboBudget(t *testing.T) {
	s := spendTurboBudget(t)
	// A run that ends on its PL1 plateau leaves the last tick's package
	// power at the limit: whether idle refills the budget must be judged
	// from an idle tick, not from that one.
	s.Power.Step(s.Power.Spec().PL1Watts, 1e-9)
	waited := s.Settle(35)
	if full := s.Power.Spec().PL2BudgetJ; s.Power.TurboBudgetJ() < full {
		t.Fatalf("settled with %.1f of %.1f J turbo budget", s.Power.TurboBudgetJ(), full)
	}
	if waited <= 0 {
		t.Fatal("refilling the budget must take simulated time")
	}
}

func TestSettleStopsWhereIdleCannotRefill(t *testing.T) {
	s := spendTurboBudget(t)
	// A PL1 below idle package power drains the budget even at idle.
	s.Power.SetLimits(1, s.Power.Spec().PL2Watts)
	if waited := s.Settle(35); waited > 0.01 {
		t.Fatalf("settle waited %.3f s for a budget idle power cannot refill", waited)
	}
}

func TestSettleJudgesIdleFloorFromAnIdleTick(t *testing.T) {
	// The RK3399 has no PL1, so only the temperature is waited for. Its
	// last tick drew 20 W, whose steady state is hotter than the package:
	// that tick's power must not pass for the idle floor.
	s := New(hw.OrangePi800(), DefaultConfig())
	s.Power.Step(20, 1e-9)
	s.Thermal.SetTempC(70)
	if steady := s.Thermal.SteadyStateC(s.Power.PkgPowerW()); steady <= 70 {
		t.Fatalf("steady state at the last tick's power is %.1f degC, want above 70", steady)
	}
	s.Settle(50)
	if got := s.Thermal.TempC(); got > 50 {
		t.Fatalf("settle returned at %.1f degC, above its 50 degC target", got)
	}
}

func TestLiveSysfsValues(t *testing.T) {
	m := hw.RaptorLake()
	s := New(m, DefaultConfig())
	s.Spawn(workload.NewSpin("x", 10), hw.NewCPUSet(0))
	s.RunFor(1)
	fsys := sysfs.New(m, s)
	freq, err := fsys.ReadFile("sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq")
	if err != nil {
		t.Fatal(err)
	}
	if freq == "800000" {
		t.Error("busy cpu0 should not sit at min frequency")
	}
	uj, _ := fsys.ReadFile("sys/class/powercap/intel-rapl:0/energy_uj")
	if uj == "0" {
		t.Error("energy_uj should have accumulated")
	}
	temp, _ := fsys.ReadFile("sys/class/thermal/thermal_zone9/temp")
	if temp == "25000" {
		t.Error("zone temp should have risen")
	}
}

// TestSysfsOnlineFollowsHotplug: a tree built after a hotplug lists only
// the online CPUs, so the per-CPU detection strategies that walk that list
// leave the offlined CPU out.
func TestSysfsOnlineFollowsHotplug(t *testing.T) {
	detected := func(groups []sysfs.Group, err error) map[int]bool {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		cpus := map[int]bool{}
		for _, g := range groups {
			for _, c := range g.CPUs {
				cpus[c] = true
			}
		}
		return cpus
	}

	x86 := New(hw.RaptorLake(), DefaultConfig())
	x86.SetCPUOnline(3, false)
	fsys := sysfs.New(x86.HW, x86)
	if got, _ := fsys.ReadFile("sys/devices/system/cpu/online"); got != "0-2,4-23" {
		t.Errorf("online after offlining cpu3 = %q, want 0-2,4-23", got)
	}
	if cpus := detected(sysfs.DetectByMaxFreq(fsys)); cpus[3] || len(cpus) != 23 {
		t.Errorf("DetectByMaxFreq grouped %d CPUs (cpu3 included: %v), want the 23 online", len(cpus), cpus[3])
	}

	arm := New(hw.OrangePi800(), DefaultConfig())
	arm.SetCPUOnline(5, false)
	if cpus := detected(sysfs.DetectByCapacity(sysfs.New(arm.HW, arm))); cpus[5] || len(cpus) != 5 {
		t.Errorf("DetectByCapacity grouped %d CPUs (cpu5 included: %v), want the 5 online", len(cpus), cpus[5])
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, float64) {
		s := New(hw.RaptorLake(), DefaultConfig())
		h, _ := workload.NewHPL(workload.HPLConfig{
			N: 3072, NB: 192, Threads: 16, Strategy: workload.OpenBLASx86(), Seed: 9,
		})
		for i, task := range h.Threads() {
			s.Spawn(task, hw.NewCPUSet(hw.RaptorLake().FirstCPUPerCore()[i]))
		}
		s.RunUntil(h.Done, 600)
		return s.Now(), s.Power.EnergyJ(power.DomainPkg)
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%g, %g) vs (%g, %g)", t1, e1, t2, e2)
	}
}

func TestRunUntilTimeout(t *testing.T) {
	s := New(hw.RaptorLake(), DefaultConfig())
	if s.RunUntil(func() bool { return false }, 0.01) {
		t.Fatal("RunUntil must report false on timeout")
	}
	if s.Now() < 0.009 {
		t.Fatal("RunUntil must have advanced time")
	}
}

func TestSMTContention(t *testing.T) {
	// Two threads sharing one physical P-core must retire fewer total
	// instructions than two threads on separate cores.
	run := func(cpus []int) float64 {
		s := New(hw.RaptorLake(), DefaultConfig())
		a := workload.NewSpin("a", 2)
		b := workload.NewSpin("b", 2)
		s.Spawn(a, hw.NewCPUSet(cpus[0]))
		s.Spawn(b, hw.NewCPUSet(cpus[1]))
		glc := events.LookupPMU("adl_glc").Lookup("INST_RETIRED")
		var fds []int
		for _, cpu := range cpus {
			fd, err := s.Kernel.Open(perfevent.Attr{
				Type:   8,
				Config: events.Encode(glc.Code, glc.DefaultUmask().Bits),
			}, -1, cpu, -1)
			if err != nil {
				t.Fatal(err)
			}
			fds = append(fds, fd)
		}
		s.RunFor(2)
		var total float64
		for _, fd := range fds {
			c, _ := s.Kernel.Read(fd)
			total += float64(c.Value)
		}
		return total
	}
	shared := run([]int{0, 1})   // SMT siblings of P-core 0
	separate := run([]int{0, 2}) // distinct physical cores
	if shared >= separate {
		t.Fatalf("SMT-shared %g >= separate-core %g; contention model missing", shared, separate)
	}
	ratio := shared / separate
	// SMTThroughput is 0.62: two siblings deliver ~1.24x a single core,
	// i.e. ~62% of two full cores.
	if ratio < 0.55 || ratio > 0.75 {
		t.Errorf("SMT throughput ratio = %.2f, want ~0.62", ratio)
	}
}

// Property: RAPL energy equals the integral of instantaneous power for
// arbitrary workload mixes (the conservation invariant DESIGN.md states).
func TestEnergyConservationProperty(t *testing.T) {
	f := func(seed int64, spins []uint8) bool {
		s := New(hw.RaptorLake(), DefaultConfig())
		for i, sp := range spins {
			if i >= 8 {
				break
			}
			dur := float64(sp%40)/100 + 0.05
			s.Spawn(workload.NewSpin("w", dur), hw.NewCPUSet(i*2))
		}
		var integral float64
		for i := 0; i < 500; i++ {
			s.Step()
			integral += s.Power.PkgPowerW() * s.Tick()
		}
		got := s.Power.EnergyJ(power.DomainPkg)
		return math.Abs(got-integral) < 1e-6*(1+integral)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: total instructions reported by per-CPU system-wide counters
// equal the per-task counters for any pinning.
func TestWideVsTaskCountsProperty(t *testing.T) {
	f := func(cpuRaw [4]uint8) bool {
		m := hw.RaptorLake()
		s := New(m, DefaultConfig())
		glc := events.LookupPMU("adl_glc").Lookup("INST_RETIRED")
		grt := events.LookupPMU("adl_grt").Lookup("INST_RETIRED")
		attrOf := func(cpu int) perfevent.Attr {
			tt := m.TypeOf(cpu)
			def := glc
			if tt.Name == "E-core" {
				def = grt
			}
			return perfevent.Attr{Type: tt.PMU.PerfType, Config: events.Encode(def.Code, def.DefaultUmask().Bits)}
		}
		var wide []int
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			fd, err := s.Kernel.Open(attrOf(cpu), -1, cpu, -1)
			if err != nil {
				return false
			}
			wide = append(wide, fd)
		}
		var taskFDs []int
		seen := map[int]bool{}
		for i := 0; i < 4; i++ {
			cpu := int(cpuRaw[i]) % m.NumCPUs()
			if seen[cpu] {
				continue
			}
			seen[cpu] = true
			loop := workload.NewInstructionLoop("w", 1e6, 20)
			p := s.Spawn(loop, hw.NewCPUSet(cpu))
			for _, tt := range []string{"P-core", "E-core"} {
				typ := m.TypeByName(tt)
				def := glc
				if tt == "E-core" {
					def = grt
				}
				fd, err := s.Kernel.Open(perfevent.Attr{
					Type: typ.PMU.PerfType, Config: events.Encode(def.Code, def.DefaultUmask().Bits),
				}, p.PID, -1, -1)
				if err != nil {
					return false
				}
				taskFDs = append(taskFDs, fd)
			}
		}
		s.RunFor(0.2)
		var wideSum, taskSum uint64
		for _, fd := range wide {
			c, _ := s.Kernel.Read(fd)
			wideSum += c.Value
		}
		for _, fd := range taskFDs {
			c, _ := s.Kernel.Read(fd)
			taskSum += c.Value
		}
		return wideSum == taskSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestDimensityEndToEnd(t *testing.T) {
	// The tri-gear machine runs the full stack: HPL across all 8 cores
	// with thermal throttling of prime/big clusters.
	m := hw.Dimensity9000()
	s := New(m, DefaultConfig())
	h, err := workload.NewHPL(workload.HPLConfig{
		N: 12288, NB: 128, Threads: 8, Strategy: workload.OpenBLASArm(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range h.Threads() {
		s.Spawn(task, hw.NewCPUSet(i))
	}
	if !s.RunUntil(h.Done, 600) {
		t.Fatal("HPL did not finish on the tri-gear machine")
	}
	g := h.Gflops(s.Now())
	if g < 5 || g > 120 {
		t.Fatalf("Gflops = %.1f, implausible for a phone SoC", g)
	}
	// A phone SoC at sustained full load must be pushed to its passive
	// trip and throttle the fast clusters.
	if s.Thermal.TempC() < 70 {
		t.Errorf("SoC only reached %.1f C under sustained load", s.Thermal.TempC())
	}
	prime := m.CPUsOfType("prime")[0]
	if f := s.CurFreqMHz(prime); f > 2500 {
		t.Errorf("prime core at %.0f MHz after sustained load; expected throttling", f)
	}
}

func TestHomogeneousBaselineScaling(t *testing.T) {
	// The traditional machine: throughput scales with cores and no hybrid
	// machinery is involved (the paper's baseline world).
	run := func(ncores int) float64 {
		s := New(hw.Homogeneous(), DefaultConfig())
		cpus := hw.Homogeneous().FirstCPUPerCore()[:ncores]
		h, _ := workload.NewHPL(workload.HPLConfig{
			N: 4800, NB: 192, Threads: ncores, Strategy: workload.OpenBLASx86(), Seed: 1,
		})
		for i, task := range h.Threads() {
			s.Spawn(task, hw.NewCPUSet(cpus[i]))
		}
		if !s.RunUntil(h.Done, 3600) {
			t.Fatal("did not finish")
		}
		return h.Gflops(s.Now())
	}
	one, four := run(1), run(4)
	ratio := four / one
	if ratio < 2.5 || ratio > 4.2 {
		t.Fatalf("4-core/1-core scaling = %.2fx; homogeneous static split should scale well", ratio)
	}
}
