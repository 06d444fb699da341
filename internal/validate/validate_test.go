package validate

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hetpapi/internal/hw"
)

var update = flag.Bool("update", false, "rewrite golden scorecards")

// TestOracleTable checks every (model, core type, workload) oracle for
// internal consistency before it is trusted to score the stack:
// finiteness, dimensional relations between the expected events, and
// monotonicity in work size.
func TestOracleTable(t *testing.T) {
	for _, src := range StandardSources() {
		m := src.Make()
		for _, c := range Cases(src.Name, m) {
			c := c
			t.Run(c.Name(), func(t *testing.T) {
				ct := c.Type()
				exp := c.Expected()
				if len(exp) == 0 {
					t.Fatal("oracle produced no expected events")
				}
				for ev, v := range exp {
					if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
						t.Errorf("%s: expected value %v not finite-positive", ev, v)
					}
				}
				if d := c.EstDurationSec(); d <= 0 || d > 10 {
					t.Errorf("EstDurationSec = %v, want (0, 10]", d)
				}

				// Dimensional relations per workload.
				switch c.Workload {
				case WorkLoop:
					if got, want := exp[EvCycles], exp[EvInstructions]/ct.BaseIPC; math.Abs(got-want) > 1e-6*want {
						t.Errorf("loop cycles %v != instr/IPC %v", got, want)
					}
				case WorkStride:
					loads := exp[EvInstructions] * 0.5
					if exp[EvLLCRefs] > loads {
						t.Errorf("llc refs %v exceed load count %v", exp[EvLLCRefs], loads)
					}
					if exp[EvLLCMisses] > exp[EvLLCRefs] {
						t.Errorf("llc misses %v exceed refs %v", exp[EvLLCMisses], exp[EvLLCRefs])
					}
					if minCycles := exp[EvInstructions] / ct.BaseIPC; exp[EvCycles] < minCycles {
						t.Errorf("stride cycles %v below pipeline floor %v", exp[EvCycles], minCycles)
					}
				case WorkSpin:
					if got, want := exp[EvCycles], c.PinMHz*1e6*c.SpinSec; math.Abs(got-want) > 1e-6*want {
						t.Errorf("spin cycles %v != f*D %v", got, want)
					}
					idleFloor := c.SpinSec * (physIdleWatts(c.Machine) + c.Machine.Power.UncoreWatts)
					if exp[EvEnergyJ] <= idleFloor {
						t.Errorf("spin energy %v not above idle floor %v", exp[EvEnergyJ], idleFloor)
					}
				}

				// Monotonicity: doubling the work size must strictly
				// increase every expected count.
				big := c
				big.InstrPerRep *= 2
				big.StrideInstr *= 2
				big.SpinSec *= 2
				bigExp := big.Expected()
				for ev, v := range exp {
					if ev == EvLLCRefs || ev == EvLLCMisses {
						if bigExp[ev] < v {
							t.Errorf("%s: not monotone in work size: %v -> %v", ev, v, bigExp[ev])
						}
						continue
					}
					if bigExp[ev] <= v {
						t.Errorf("%s: not strictly monotone in work size: %v -> %v", ev, v, bigExp[ev])
					}
				}
				if big.EstDurationSec() <= c.EstDurationSec() {
					t.Errorf("duration not monotone in work size")
				}
			})
		}
	}
}

// TestPinnedMHzOnGrid checks the pin helper lands on each type's OPP
// grid, inside its DVFS range — a prerequisite for every cycle oracle.
func TestPinnedMHzOnGrid(t *testing.T) {
	for _, src := range StandardSources() {
		m := src.Make()
		for i := range m.Types {
			ct := &m.Types[i]
			for _, frac := range []float64{0, 0.3, 0.7, 1} {
				f := PinnedMHz(ct, frac)
				if f < ct.MinFreqMHz || f > ct.MaxFreqMHz {
					t.Errorf("%s/%s: pin %v outside [%v, %v]", src.Name, ct.Name, f, ct.MinFreqMHz, ct.MaxFreqMHz)
				}
				// The max endpoint is a legal operating point even off
				// the step grid (TargetMHz clamps after quantizing).
				if ct.FreqStepMHz > 0 && f != ct.MaxFreqMHz {
					k := (f - ct.MinFreqMHz) / ct.FreqStepMHz
					if math.Abs(k-math.Round(k)) > 1e-9 {
						t.Errorf("%s/%s: pin %v off the %v MHz grid", src.Name, ct.Name, f, ct.FreqStepMHz)
					}
				}
			}
		}
	}
}

// TestGoldenScorecards is the committed-artifact gate: the full scorecard
// of every standard model must match its golden byte-for-byte, so any
// change to sim, sched, dvfs, perfevent or core that shifts counter
// semantics fails here. Regenerate with -update after intentional
// changes, and review the diff like any behavioral change.
func TestGoldenScorecards(t *testing.T) {
	for _, src := range StandardSources() {
		src := src
		t.Run(src.Name, func(t *testing.T) {
			card, err := BuildScorecard([]ModelSource{src})
			if err != nil {
				t.Fatal(err)
			}
			if !card.AllPass() {
				for _, r := range card.Rows {
					if !r.Pass {
						t.Errorf("failing row: %+v", r)
					}
				}
				t.Fatalf("scorecard has %d failing rows", card.Summary.Failed)
			}
			got := card.GoldenBytes()
			path := filepath.Join("testdata", fmt.Sprintf("scorecard_%s.golden.json", src.Name))
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("scorecard drifted from golden %s\ndigest got:  %s\nre-run with -update and review the diff", path, card.Digest)
			}
		})
	}
}

// TestScorecardReproducible: two independent builds must agree to the
// byte (the acceptance criterion behind committing the artifacts).
func TestScorecardReproducible(t *testing.T) {
	srcs := []ModelSource{mustSource(t, "raptorlake")}
	a, err := BuildScorecard(srcs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildScorecard(srcs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.GoldenBytes(), b.GoldenBytes()) {
		t.Fatal("scorecard bytes differ between identical builds")
	}
	if a.Digest != b.Digest || a.Digest == "" {
		t.Fatalf("digests differ or empty: %q vs %q", a.Digest, b.Digest)
	}
}

// TestFaultedRunsBounded: the faults mode must actually degrade the
// measurement (nonzero bounds on at least one event) and the observed
// error must stay inside every reported bound.
func TestFaultedRunsBounded(t *testing.T) {
	for _, name := range []string{"raptorlake", "orangepi800"} {
		src := mustSource(t, name)
		m := src.Make()
		for _, c := range Cases(src.Name, m) {
			if c.Workload != WorkLoop {
				continue
			}
			c := c
			res, err := Run(&c, ModeFaults)
			if err != nil {
				t.Fatal(err)
			}
			exp := c.Expected()
			anyBound := false
			for _, ev := range []string{EvInstructions, EvCycles} {
				o := res.Events[ev]
				if o.Bound > 0 {
					anyBound = true
				}
				if absErr := math.Abs(float64(o.Final) - exp[ev]); absErr > float64(o.Bound)+boundSlack(exp[ev]) {
					t.Errorf("%s %s: error %v exceeds bound %d", c.Name(), ev, absErr, o.Bound)
				}
			}
			if !anyBound {
				t.Errorf("%s: fault plan produced no error bound at all", c.Name())
			}
		}
	}
}

// TestOverheadDeltasZero: monitoring must not perturb the physics. The
// simulated elapsed time and package energy of a monitored run must
// equal the bare run exactly.
func TestOverheadDeltasZero(t *testing.T) {
	src := mustSource(t, "dimensity9000")
	m := src.Make()
	for _, c := range Cases(src.Name, m) {
		if c.Workload != WorkLoop {
			continue
		}
		c := c
		mon, err := Run(&c, ModeClean)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := RunBare(&c)
		if err != nil {
			t.Fatal(err)
		}
		if mon.ElapsedSec != bare.ElapsedSec {
			t.Errorf("%s: elapsed differs monitored %v vs bare %v", c.Name(), mon.ElapsedSec, bare.ElapsedSec)
		}
		if mon.EnergyJ != bare.EnergyJ {
			t.Errorf("%s: energy differs monitored %v vs bare %v", c.Name(), mon.EnergyJ, bare.EnergyJ)
		}
	}
}

func mustSource(t *testing.T, name string) ModelSource {
	t.Helper()
	src, err := hw.LookupModel(name)
	if err != nil {
		t.Fatal(err)
	}
	return src
}
