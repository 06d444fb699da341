package workload

import (
	"fmt"
	"math/rand"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
)

// Strategy describes how an HPL build divides work across threads on a
// hybrid machine. The two builds the paper compares differ exactly here:
// OpenBLAS HPL splits each iteration's work equally across threads and
// meets at a barrier, so the slow cores straggle and the fast cores
// spin-wait; the vendor-optimized (Intel MKL) build balances work
// dynamically against each core's actual throughput and places the
// streaming (LLC-hostile) updates where they hurt least.
type Strategy struct {
	// Name labels the build ("OpenBLAS HPL", "Intel HPL").
	Name string
	// Dynamic selects work-stealing distribution; false means a static
	// equal split with a barrier per panel iteration.
	Dynamic bool
	// EffMult scales the core type's tuned DGEMM efficiency per core
	// class (1.0 = as good as the vendor kernels).
	EffMult [2]float64
	// LLCRefsPerFlop is the shared-cache reference rate of the build's
	// blocking, per core class.
	LLCRefsPerFlop [2]float64
	// LLCMissFrac is the fraction of those references that miss, per core
	// class — the quantity behind Table III of the paper.
	LLCMissFrac [2]float64
	// WorkActivity is the power activity factor of the build's compute
	// kernels per core class (1.0 = fully exercises the vector units the
	// way a vendor-tuned DGEMM does). Zero means 1.0.
	WorkActivity [2]float64
}

func (s Strategy) workActivityFor(class hw.CoreClass) float64 {
	if v := s.WorkActivity[class]; v > 0 {
		return v
	}
	return 1
}

func (s Strategy) effFor(class hw.CoreClass) float64 {
	if v := s.EffMult[class]; v > 0 {
		return v
	}
	return 1
}

// OpenBLASx86 is HPL compiled against OpenBLAS on the Raptor Lake system:
// hybrid-oblivious static scheduling, kernels slightly behind Intel's, and
// poor LLC blocking under all-core contention.
func OpenBLASx86() Strategy {
	return Strategy{
		Name:    "OpenBLAS HPL",
		Dynamic: false,
		EffMult: [2]float64{
			hw.Performance: 0.906,
			hw.Efficiency:  0.948,
		},
		LLCRefsPerFlop: [2]float64{
			hw.Performance: 0.009,
			hw.Efficiency:  0.020,
		},
		LLCMissFrac: [2]float64{
			hw.Performance: 0.86,
			hw.Efficiency:  0.0005,
		},
		// The OpenBLAS kernels do not saturate the hybrid vector units the
		// way MKL does, which is why the paper sees OpenBLAS peak at only
		// 165.7 W, well below the 219 W short-term cap.
		WorkActivity: [2]float64{
			hw.Performance: 0.93,
			hw.Efficiency:  0.93,
		},
	}
}

// IntelMKL is the Intel oneAPI optimized HPL: dynamic hybrid-aware
// scheduling with LLC-aware placement.
func IntelMKL() Strategy {
	return Strategy{
		Name:    "Intel HPL",
		Dynamic: true,
		EffMult: [2]float64{
			hw.Performance: 1.0,
			hw.Efficiency:  1.0,
		},
		LLCRefsPerFlop: [2]float64{
			hw.Performance: 0.008,
			hw.Efficiency:  0.022,
		},
		LLCMissFrac: [2]float64{
			hw.Performance: 0.64,
			hw.Efficiency:  0.0003,
		},
	}
}

// OpenBLASArm is HPL compiled against OpenBLAS on the OrangePi: static
// scheduling; the core-type efficiencies in the ARM machine description
// already describe the OpenBLAS NEON kernels.
func OpenBLASArm() Strategy {
	return Strategy{
		Name:    "OpenBLAS HPL (ARM)",
		Dynamic: false,
		EffMult: [2]float64{
			hw.Performance: 1.0,
			hw.Efficiency:  1.0,
		},
		LLCRefsPerFlop: [2]float64{
			hw.Performance: 0.012,
			hw.Efficiency:  0.012,
		},
		LLCMissFrac: [2]float64{
			hw.Performance: 0.30,
			hw.Efficiency:  0.18,
		},
	}
}

// HPLConfig configures one HPL run (the HPL.dat essentials).
type HPLConfig struct {
	// N is the problem size; NB the block size. The paper uses N=57024,
	// NB=192 on Raptor Lake.
	N, NB int
	// Threads is the number of worker threads (one per enabled core).
	Threads int
	// Strategy selects the build's scheduling behaviour.
	Strategy Strategy
	// Seed drives the per-thread noise.
	Seed int64
}

// HPL is one run of the High Performance Linpack benchmark: a blocked LU
// factorization of an N x N matrix. Iteration k factors one NB-wide panel
// and updates the trailing (N - (k+1)*NB)^2 submatrix; the update dominates
// and parallelizes across the worker threads according to the strategy.
type HPL struct {
	cfg        HPLConfig
	iterFlops  []float64
	totalFlops float64

	threads []*HPLThread

	iter      int
	pending   int     // static: threads still working this iteration
	pool      float64 // dynamic: unclaimed flops
	flopsDone float64
	done      bool
}

// NewHPL validates the configuration and builds the run.
func NewHPL(cfg HPLConfig) (*HPL, error) {
	if cfg.N <= 0 || cfg.NB <= 0 || cfg.NB > cfg.N {
		return nil, fmt.Errorf("workload: invalid HPL size N=%d NB=%d", cfg.N, cfg.NB)
	}
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("workload: HPL needs at least one thread")
	}
	h := &HPL{cfg: cfg}
	n, nb := float64(cfg.N), float64(cfg.NB)
	iters := (cfg.N + cfg.NB - 1) / cfg.NB
	var sum float64
	for k := 0; k < iters; k++ {
		m := n - float64(k+1)*nb
		if m < 0 {
			m = 0
		}
		f := 2*nb*m*m + nb*nb*m // trailing update + panel factorization
		if f <= 0 {
			f = nb * nb * nb / 3
		}
		h.iterFlops = append(h.iterFlops, f)
		sum += f
	}
	// Normalize so the run retires exactly the canonical HPL flop count,
	// which the Gflops figure of merit is defined against.
	canonical := 2.0/3.0*n*n*n + 2*n*n
	for i := range h.iterFlops {
		h.iterFlops[i] *= canonical / sum
	}
	h.totalFlops = canonical

	for i := 0; i < cfg.Threads; i++ {
		h.threads = append(h.threads, &HPLThread{
			h:   h,
			idx: i,
			rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
		})
	}
	h.startIteration(0)
	return h, nil
}

func (h *HPL) startIteration(k int) {
	if k >= len(h.iterFlops) {
		h.done = true
		return
	}
	h.iter = k
	if h.cfg.Strategy.Dynamic {
		h.pool = h.iterFlops[k]
		return
	}
	share := h.iterFlops[k] / float64(len(h.threads))
	for _, t := range h.threads {
		t.share = share
	}
	h.pending = len(h.threads)
}

// Threads returns the worker tasks to hand to the scheduler.
func (h *HPL) Threads() []Task {
	out := make([]Task, len(h.threads))
	for i, t := range h.threads {
		out[i] = t
	}
	return out
}

// Done reports whether the factorization is complete.
func (h *HPL) Done() bool { return h.done }

// Progress returns the fraction of the total flops retired, in [0, 1].
func (h *HPL) Progress() float64 { return h.flopsDone / h.totalFlops }

// TotalFlops returns the canonical HPL operation count 2/3 N^3 + 2 N^2.
func (h *HPL) TotalFlops() float64 { return h.totalFlops }

// Gflops returns the HPL figure of merit for a completed run that took
// elapsed simulated seconds.
func (h *HPL) Gflops(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return h.totalFlops / elapsed / 1e9
}

// FlopsByThread returns the flops each worker has retired, for instruction
// and load-balance analyses.
func (h *HPL) FlopsByThread() []float64 {
	out := make([]float64, len(h.threads))
	for i, t := range h.threads {
		out[i] = t.flopsDone
	}
	return out
}

// HPLThread is one HPL worker; it implements Task.
type HPLThread struct {
	h   *HPL
	idx int
	rng *rand.Rand

	share     float64 // static strategy: remaining flops this iteration
	flopsDone float64
}

// Name implements Task.
func (t *HPLThread) Name() string { return fmt.Sprintf("hpl-%d", t.idx) }

// Ready implements Task.
func (t *HPLThread) Ready() bool { return !t.h.done }

// Done implements Task.
func (t *HPLThread) Done() bool { return t.h.done }

// Run implements Task. The thread works through its share (static) or pulls
// from the iteration pool (dynamic); any leftover slice time is spent
// spin-waiting at the barrier, retiring real non-FP instructions — which is
// what skews the per-core-type instruction balance on hybrid-oblivious
// builds (Table III).
func (t *HPLThread) Run(ctx *ExecContext, dt float64, out *events.Stats) float64 {
	h := t.h
	*out = events.Stats{}
	if h.done || dt <= 0 || ctx.FreqMHz <= 0 {
		return 0
	}
	class := ctx.Type.Class
	eff := ctx.Type.HPLEfficiency * h.cfg.Strategy.effFor(class)
	rate := ctx.Type.FlopsPerCycle * ctx.FreqMHz * 1e6 * eff * ctx.Throughput
	avail := rate * dt

	var worked float64
	if h.cfg.Strategy.Dynamic {
		worked = avail
		if worked > h.pool {
			worked = h.pool
		}
		h.pool -= worked
		if h.pool <= 0 {
			h.startIteration(h.iter + 1)
		}
	} else {
		worked = avail
		if worked > t.share {
			worked = t.share
		}
		if worked > 0 {
			t.share -= worked
			if t.share <= 0 {
				h.pending--
				if h.pending == 0 {
					h.startIteration(h.iter + 1)
				}
			}
		}
	}
	t.flopsDone += worked
	h.flopsDone += worked

	workFrac := 0.0
	if avail > 0 {
		workFrac = worked / avail
	}
	spinFrac := 1 - workFrac

	if worked > 0 {
		t.workStatsInto(ctx, worked, dt*workFrac, out)
	}
	if spinFrac > 1e-12 {
		out.Add(SpinStats(ctx, dt*spinFrac))
	}
	return workFrac*h.cfg.Strategy.workActivityFor(class) + spinFrac*ctx.Type.SpinActivity
}

// workStatsInto converts retired flops into the full event bundle,
// written field by field into out (assumed zeroed) so the hot loop never
// copies the struct.
func (t *HPLThread) workStatsInto(ctx *ExecContext, flops, dt float64, out *events.Stats) {
	typ := ctx.Type
	class := typ.Class
	fpInstr := flops / typ.VecFlopsPerInstr // one packed FMA retires VecFlopsPerInstr flops
	instr := fpInstr * 2.2                  // address arithmetic, loads, loop control
	cycles := ctx.CyclesIn(dt) * ctx.Throughput

	loads := fpInstr * 1.0
	stores := fpInstr * 0.35
	l1 := loads + stores
	l1m := l1 * 0.06
	l2 := l1m
	l2m := l2 * 0.35

	noise := 0.97 + 0.06*t.rng.Float64()
	llcRefs := flops * t.h.cfg.Strategy.LLCRefsPerFlop[class] * noise
	llcMiss := llcRefs * t.h.cfg.Strategy.LLCMissFrac[class] * (0.98 + 0.04*t.rng.Float64())

	branches := instr * 0.04
	out.Cycles = cycles
	out.RefCycles = typ.BaseFreqMHz * 1e6 * dt
	out.Instructions = instr
	out.Branches = branches
	out.BranchMisses = branches * 0.005
	out.Loads = loads
	out.Stores = stores
	out.L1DRefs = l1
	out.L1DMisses = l1m
	out.L2Refs = l2
	out.L2Misses = l2m
	out.LLCRefs = llcRefs
	out.LLCMisses = llcMiss
	out.FP256D = vec256(typ, fpInstr)
	out.FP128D = vec128(typ, fpInstr)
	out.StallCycles = cycles * 0.12
	out.Slots = cycles * typ.IssueWidth
	out.Flops = flops
}

func vec256(t *hw.CoreType, fpInstr float64) float64 {
	if t.VecFlopsPerInstr >= 8 {
		return fpInstr
	}
	return 0
}

func vec128(t *hw.CoreType, fpInstr float64) float64 {
	if t.VecFlopsPerInstr < 8 {
		return fpInstr
	}
	return 0
}
