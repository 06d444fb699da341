package perfevent

// Kernel.Seq's contract, fuzzed: under random operation sequences on a
// hybrid and a homogeneous kernel, whenever no fault transition is due
// at the kernel clock, a descriptor whose Seq still equals the Seq taken
// right after its last Read reads back the same value and error. The
// scenario harness skips exactly those reads, so a missing bump at a
// count or liveness write shows up here as a stale read.

import (
	"fmt"
	"math/rand"
	"testing"

	"hetpapi/internal/events"
	"hetpapi/internal/faults"
	"hetpapi/internal/hw"
	"hetpapi/internal/power"
)

// seqRead is what a descriptor's last Read returned, with the Seq taken
// right after it.
type seqRead struct {
	seq   uint64
	value uint64
	err   string
}

// seqTarget is the (pid, cpu) an fd was opened on, for group members.
type seqTarget struct{ pid, cpu int }

// seqRun drives one kernel through the operations encoded in ops.
type seqRun struct {
	t    *testing.T
	m    *hw.Machine
	k    *Kernel
	pwr  *power.Model
	plan *faults.Plan
	now  float64
	ops  []byte
	fds  []int // every fd ever opened, closed ones included
	on   map[int]seqTarget
	last map[int]seqRead
}

func (r *seqRun) byte() byte {
	if len(r.ops) == 0 {
		return 0
	}
	b := r.ops[0]
	r.ops = r.ops[1:]
	return b
}

func (r *seqRun) intn(n int) int { return int(r.byte()) % n }

func (r *seqRun) pid() int { return 100 + r.intn(3) }

func (r *seqRun) cpu() int { return r.intn(r.m.NumCPUs()) }

func (r *seqRun) coreType() *hw.CoreType { return &r.m.Types[r.intn(len(r.m.Types))] }

// fd picks a descriptor ever opened (possibly closed), or a never-opened
// one when there is none yet.
func (r *seqRun) fd() int {
	if len(r.fds) == 0 {
		return 3
	}
	return r.fds[r.intn(len(r.fds))]
}

// hwAttr is a generic hardware event extended to the core type's PMU,
// sampling one time in four. The period is at least 1e6, so that one
// TaskExec (at most 2.55e6 instructions) records at most two samples and
// the rings stay small.
func (r *seqRun) hwAttr(t *hw.CoreType) Attr {
	a := Attr{
		Type:     PerfTypeHardware,
		Config:   uint64(t.PMU.PerfType)<<HWConfigExtShift | uint64(r.intn(6)),
		Disabled: r.intn(4) == 0,
	}
	if r.intn(4) == 0 {
		a.SamplePeriod = 1e6 * uint64(1+r.intn(8))
	}
	return a
}

func (r *seqRun) open(attr Attr, pid, cpu, group int) {
	fd, err := r.k.Open(attr, pid, cpu, group)
	if err == nil {
		r.fds = append(r.fds, fd)
		r.on[fd] = seqTarget{pid, cpu}
	}
}

// step applies one operation.
func (r *seqRun) step() {
	k := r.k
	switch r.intn(20) {
	case 0: // per-task, own-PMU or foreign depending on where it runs
		r.open(r.hwAttr(r.coreType()), r.pid(), -1, -1)
	case 1: // CPU-wide, own PMU
		cpu := r.cpu()
		r.open(r.hwAttr(r.m.TypeOf(cpu)), -1, cpu, -1)
	case 2: // CPU-wide, any PMU (a foreign probe on a hybrid)
		r.open(r.hwAttr(r.coreType()), -1, r.cpu(), -1)
	case 3: // group member
		leader := r.fd()
		tgt := r.on[leader]
		r.open(r.hwAttr(r.coreType()), tgt.pid, tgt.cpu, leader)
	case 4: // uncore (ENODEV on machines without one)
		typ := uint32(24)
		if len(r.m.Uncore) > 0 {
			typ = r.m.Uncore[0].PMU.PerfType
		}
		r.open(Attr{Type: typ, Config: events.Encode(0x04, uint64(1+r.intn(3)))}, -1, r.cpu(), -1)
	case 5: // RAPL energy
		r.open(Attr{Type: r.m.Power.RAPLPerfType, Config: events.Encode(uint64(1+r.intn(5)), 0)}, -1, r.cpu(), -1)
	case 6: // software
		r.open(Attr{Type: PerfTypeSoftware, Config: uint64(r.intn(5))}, r.pid(), -1, -1)
	case 7:
		k.Enable(r.fd())
	case 8:
		k.Disable(r.fd())
	case 9:
		k.Reset(r.fd())
	case 10:
		k.Close(r.fd())
	case 11:
		k.ReadGroup(r.fd())
	case 12, 13:
		scale := float64(r.byte())
		k.TaskExec(r.pid(), r.cpu(), 0.001, events.Stats{
			Instructions: scale * 1e4,
			Cycles:       scale * 7e3,
			Branches:     scale * 2e3,
			BranchMisses: float64(r.byte()),
			LLCRefs:      float64(r.byte()) * 10,
			LLCMisses:    float64(r.byte()),
			Loads:        scale * 3e3,
			Stores:       scale * 1e3,
		})
	case 14:
		if r.intn(2) == 0 {
			k.SchedIn(r.pid(), r.cpu(), r.now)
		} else {
			k.SchedOut(r.pid(), r.cpu(), r.now)
		}
	case 15:
		k.SetCPUOnline(r.cpu(), r.intn(3) != 0)
	case 16:
		if t := r.coreType(); r.intn(2) == 0 {
			k.SetWatchdog(t.PMU.PerfType, r.intn(2) == 0)
		} else {
			k.SetCounterBudget(t.PMU.PerfType, r.intn(5))
		}
	case 17: // the simulator's order: the power model steps, then the kernel clock
		dt := 0.001 * float64(1+r.intn(4))
		r.pwr.Step(float64(r.byte()), dt)
		r.now += dt
		k.Advance(r.now)
	case 18: // a random fault plan, shifted to start now
		prof := faults.Profile{HorizonSec: 0.05, MaxEvents: 1 + r.intn(8)}
		for i := range r.m.Types {
			prof.PMUs = append(prof.PMUs, r.m.Types[i].PMU.PerfType)
		}
		for cpu := 0; cpu < r.m.NumCPUs(); cpu++ {
			prof.CPUs = append(prof.CPUs, cpu)
		}
		evs := faults.Random(int64(r.byte()), prof).Events()
		for i := range evs {
			evs[i].AtSec += r.now
		}
		r.plan = faults.NewPlan(evs...)
		k.AttachFaults(r.plan)
	case 19:
		r.check()
	}
}

// check reads every descriptor ever opened. When no fault transition is
// due, an unchanged nonzero Seq must read back the previous result.
func (r *seqRun) check() {
	gated := r.plan.NextAt() > r.k.Now()
	for _, fd := range r.fds {
		seq := r.k.Seq(fd)
		c, err := r.k.Read(fd)
		got := seqRead{seq: r.k.Seq(fd), value: c.Value, err: fmt.Sprint(err)}
		if prev, ok := r.last[fd]; ok && gated && seq != 0 && seq == prev.seq &&
			(got.value != prev.value || got.err != prev.err) {
			r.t.Fatalf("%s fd %d at t=%g: Seq %d unchanged, but Read went from (%d, %s) to (%d, %s)",
				r.m.Name, fd, r.k.Now(), seq, prev.value, prev.err, got.value, got.err)
		}
		r.last[fd] = got
	}
}

// maxSeqOps bounds the bytes one input may spend: each check reads every
// descriptor opened so far, so the cost grows with the square of it.
const maxSeqOps = 2048

func runSeqOps(t *testing.T, m *hw.Machine, ops []byte) {
	if len(ops) > maxSeqOps {
		ops = ops[:maxSeqOps]
	}
	r := &seqRun{
		t: t, m: m, k: NewKernel(m), pwr: power.New(m.Power), ops: ops,
		on: map[int]seqTarget{}, last: map[int]seqRead{},
	}
	r.k.AttachPower(r.pwr)
	for len(r.ops) > 0 {
		r.step()
	}
	r.check()
}

// FuzzKernelSeq runs each input's operations on a hybrid and on a
// homogeneous kernel. An operation is one byte choosing among opens
// (per-task, CPU-wide, group member, foreign-PMU, uncore, energy,
// software), Enable, Disable, Reset, Close, ReadGroup, TaskExec with
// non-negative stats, SchedIn/SchedOut, hotplug, watchdog and counter
// budget changes, Advance, an attached faults.Random plan, and a check
// that Reads every descriptor; the bytes after it are its arguments.
func FuzzKernelSeq(f *testing.F) {
	// Short seeds keep the engine's minimization of new inputs quick.
	for seed := int64(1); seed <= 32; seed++ {
		ops := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	// The scheduler hooks credit only enabled software events of the
	// task they move, which random bytes rarely line up.
	f.Add([]byte{
		6, 3, 0, // open CONTEXT_SWITCHES for pid 100
		6, 4, 0, // open CPU_MIGRATIONS for pid 100
		19,          // check
		14, 0, 0, 0, // SchedIn pid 100 on cpu0
		14, 0, 0, 1, // SchedIn pid 100 on cpu1: a migration
		14, 1, 0, 1, // SchedOut pid 100: a context switch
		19, // check
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, m := range []*hw.Machine{hw.RaptorLake(), hw.Homogeneous()} {
			runSeqOps(t, m, ops)
		}
	})
}
