// Package sched implements the operating-system scheduler of the simulated
// machines: per-CPU placement with affinity masks (the taskset mechanism
// the paper's experiments rely on), a preference for Performance-class
// cores when they are free (EAS-style up-migration), periodic load
// balancing with a seeded random perturbation that models timer interrupts
// and background activity, and round-robin time sharing when runnable tasks
// outnumber allowed CPUs.
//
// The random perturbation is what makes a single free-running thread (the
// papi_hybrid_100m_one_eventset workload) spend most of its time on P-cores
// with occasional excursions to E-cores — so its retired instructions split
// between the two PMUs' counters just as the paper reports.
package sched

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"hetpapi/internal/hw"
	"hetpapi/internal/workload"
)

// Config tunes the scheduler.
type Config struct {
	// BalancePeriodSec is the load-balancing cadence.
	BalancePeriodSec float64
	// MigrateToEffProb is the per-balance probability that a task running
	// on a Performance-class CPU is kicked to a free Efficiency-class CPU
	// (modeling interrupts, background jobs and scheduler imprecision).
	MigrateToEffProb float64
	// MigrateToPerfProb is the per-balance probability that a task on an
	// Efficiency-class CPU is up-migrated to a free Performance-class CPU.
	MigrateToPerfProb float64
	// TimesliceSec is the round-robin quantum used when tasks are waiting.
	TimesliceSec float64
	// NoClassPreference disables the EAS-style preference for
	// Performance-class cores at placement time (ablation knob: a
	// class-blind scheduler places tasks on the lowest free CPU id).
	NoClassPreference bool
	// Seed drives the perturbation RNG.
	Seed int64
}

// DefaultConfig returns the scheduler constants used by the experiments.
func DefaultConfig() Config {
	return Config{
		BalancePeriodSec:  0.004,
		MigrateToEffProb:  0.04,
		MigrateToPerfProb: 0.30,
		TimesliceSec:      0.004,
		Seed:              1,
	}
}

// Process is a scheduled task with its kernel-side state.
type Process struct {
	// PID is the process id assigned at Spawn.
	PID int
	// Task is the workload being executed.
	Task workload.Task

	affinity hw.CPUSet
	cpu      int // current CPU, or -1 when not running
	placedAt float64
}

// CPU returns the CPU the process currently occupies, or -1.
func (p *Process) CPU() int { return p.cpu }

// Affinity returns the process's allowed-CPU mask.
func (p *Process) Affinity() hw.CPUSet { return p.affinity }

// Hook observes context switches (the perf_event subsystem attaches here
// the way the real kernel's perf hooks sit in the scheduler).
type Hook interface {
	// SchedIn fires when pid starts running on cpu.
	SchedIn(pid, cpu int, now float64)
	// SchedOut fires when pid stops running on cpu.
	SchedOut(pid, cpu int, now float64)
}

// Scheduler places processes on the machine's CPUs.
type Scheduler struct {
	m   *hw.Machine
	cfg Config
	rng *rand.Rand

	procs       []*Process
	byCPU       []*Process
	offline     []bool
	nextPID     int
	lastBalance float64
	hooks       []Hook
	gen         uint64

	migrations      int
	contextSwitches int
}

// New returns an empty scheduler for the machine.
func New(m *hw.Machine, cfg Config) *Scheduler {
	if cfg.BalancePeriodSec <= 0 {
		cfg.BalancePeriodSec = 0.004
	}
	if cfg.TimesliceSec <= 0 {
		cfg.TimesliceSec = 0.004
	}
	return &Scheduler{
		m:       m,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		byCPU:   make([]*Process, m.NumCPUs()),
		offline: make([]bool, m.NumCPUs()),
		nextPID: 1000, // init-ish pids, for flavor
	}
}

// SetOnline changes a CPU's hotplug state as seen by the scheduler: an
// offline CPU's occupant is evicted immediately and no process is placed
// there until the CPU comes back. Affinity masks are left alone — a task
// whose mask only covers offline CPUs simply waits, like a real task
// bound to a hotplugged-off CPU.
func (s *Scheduler) SetOnline(cpu int, online bool, now float64) {
	if cpu < 0 || cpu >= len(s.offline) {
		return
	}
	s.offline[cpu] = !online
	s.gen++
	if !online {
		if p := s.byCPU[cpu]; p != nil {
			s.evict(p, now)
		}
	}
}

// Online reports whether the CPU is online for scheduling.
func (s *Scheduler) Online(cpu int) bool {
	return cpu >= 0 && cpu < len(s.offline) && !s.offline[cpu]
}

// AddHook registers a context-switch observer.
func (s *Scheduler) AddHook(h Hook) { s.hooks = append(s.hooks, h) }

// Spawn adds a task restricted to the affinity mask (use hw.AllCPUs for no
// restriction) and returns its process.
func (s *Scheduler) Spawn(t workload.Task, affinity hw.CPUSet) *Process {
	p := &Process{PID: s.nextPID, Task: t, affinity: affinity, cpu: -1}
	s.nextPID++
	s.procs = append(s.procs, p)
	s.gen++
	return p
}

// SetAffinity changes a process's allowed CPUs (the sched_setaffinity /
// taskset operation). The process is migrated off a now-disallowed CPU at
// the next tick.
func (s *Scheduler) SetAffinity(pid int, set hw.CPUSet) error {
	if set.Empty() {
		return fmt.Errorf("sched: empty affinity mask")
	}
	for _, p := range s.procs {
		if p.PID == pid {
			p.affinity = set
			s.gen++
			return nil
		}
	}
	return fmt.Errorf("sched: no such pid %d", pid)
}

// Processes returns the live processes, ordered by pid.
func (s *Scheduler) Processes() []*Process {
	out := append([]*Process(nil), s.procs...)
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// RunningOn returns the process currently placed on cpu, or nil.
func (s *Scheduler) RunningOn(cpu int) *Process { return s.byCPU[cpu] }

// Gen returns a generation counter bumped by every placement-relevant
// mutation: spawns, affinity changes, hotplug state changes, assignments,
// evictions and reaps. A caller that cached a view of the scheduler's
// state may keep it as long as Gen is unchanged; the simulator uses this
// to detect when an idle span ends.
func (s *Scheduler) Gen() uint64 { return s.gen }

// NextBalanceSec returns the simulated time of the next load-balance
// deadline. Tick runs the balance pass at the first tick at or after it.
func (s *Scheduler) NextBalanceSec() float64 {
	return s.lastBalance + s.cfg.BalancePeriodSec
}

// Quiescent reports whether a Tick would leave the scheduler's state
// untouched apart from the balance clock: no process is placed, wants CPU
// time, or is finished and waiting to be reaped. Task readiness can only
// change while a task runs or through an external mutation (which bumps
// Gen), so a quiescent scheduler stays quiescent until Gen changes.
func (s *Scheduler) Quiescent() bool {
	for _, p := range s.procs {
		if p.cpu >= 0 || p.Task.Ready() || p.Task.Done() {
			return false
		}
	}
	return true
}

// Migrations returns the number of cross-CPU migrations so far.
func (s *Scheduler) Migrations() int { return s.migrations }

// ContextSwitches returns the number of sched-in events so far.
func (s *Scheduler) ContextSwitches() int { return s.contextSwitches }

// Tick updates placements at simulated time now: reaps finished tasks,
// evicts processes from disallowed CPUs, places runnable tasks, and runs
// the periodic balance pass.
func (s *Scheduler) Tick(now float64) {
	s.reap(now)
	s.enforceAffinity(now)
	s.place(now)
	if now-s.lastBalance >= s.cfg.BalancePeriodSec {
		s.lastBalance = now
		s.balance(now)
	}
}

func (s *Scheduler) reap(now float64) {
	kept := s.procs[:0]
	for _, p := range s.procs {
		if p.Task.Done() {
			s.evict(p, now)
			s.gen++
			continue
		}
		kept = append(kept, p)
	}
	s.procs = kept
}

func (s *Scheduler) enforceAffinity(now float64) {
	for _, p := range s.procs {
		if p.cpu >= 0 && (!p.affinity.Has(p.cpu) || s.offline[p.cpu]) {
			s.evict(p, now)
		}
	}
}

func (s *Scheduler) evict(p *Process, now float64) {
	if p.cpu < 0 {
		return
	}
	for _, h := range s.hooks {
		h.SchedOut(p.PID, p.cpu, now)
	}
	s.byCPU[p.cpu] = nil
	p.cpu = -1
	s.gen++
}

func (s *Scheduler) assign(p *Process, cpu int, now float64) {
	if p.cpu == cpu {
		return
	}
	if p.cpu >= 0 {
		s.evict(p, now)
		s.migrations++
	}
	p.cpu = cpu
	p.placedAt = now
	s.byCPU[cpu] = p
	s.contextSwitches++
	s.gen++
	for _, h := range s.hooks {
		h.SchedIn(p.PID, cpu, now)
	}
}

// place puts waiting runnable processes on free allowed CPUs, preferring
// Performance-class cores and SMT-free physical cores.
func (s *Scheduler) place(now float64) {
	for _, p := range s.procs {
		if p.cpu >= 0 || !p.Task.Ready() {
			continue
		}
		if cpu := s.pickCPU(p.affinity); cpu >= 0 {
			s.assign(p, cpu, now)
		}
	}
}

// pickCPU returns the best free CPU in the mask, or -1.
func (s *Scheduler) pickCPU(mask hw.CPUSet) int {
	best, bestScore := -1, -1
	for _, cpu := range mask.IDs() {
		if cpu >= len(s.byCPU) || s.byCPU[cpu] != nil || s.offline[cpu] {
			continue
		}
		score := 0
		if !s.cfg.NoClassPreference && s.m.TypeOf(cpu).Class == hw.Performance {
			score += 4
		}
		if sib := s.m.SiblingOf(cpu); sib < 0 || s.byCPU[sib] == nil {
			score += 2 // whole physical core is free
		}
		if score > bestScore {
			best, bestScore = cpu, score
		}
	}
	return best
}

// balance runs the periodic pass: up-migration, random perturbation toward
// E-cores, and round-robin rotation when tasks are waiting.
func (s *Scheduler) balance(now float64) {
	// Round-robin: every runnable waiting task preempts the process that
	// has held an allowed CPU the longest past its timeslice. Victims
	// evicted in this pass wait until the next one, which rotates CPU time
	// fairly through an overcommitted task set.
	evictedNow := map[int]bool{}
	for _, waiting := range s.procs {
		if waiting.cpu >= 0 || !waiting.Task.Ready() {
			continue
		}
		var victim *Process
		for _, p := range s.procs {
			if p.cpu < 0 || evictedNow[p.PID] || !waiting.affinity.Has(p.cpu) {
				continue
			}
			if now-p.placedAt < s.cfg.TimesliceSec {
				continue
			}
			if victim == nil || p.placedAt < victim.placedAt {
				victim = p
			}
		}
		if victim == nil {
			continue
		}
		cpu := victim.cpu
		s.evict(victim, now)
		evictedNow[victim.PID] = true
		s.assign(waiting, cpu, now)
	}

	// Migration perturbations, in pid order for determinism.
	for _, p := range s.procs {
		if p.cpu < 0 {
			continue
		}
		class := s.m.TypeOf(p.cpu).Class
		switch class {
		case hw.Performance:
			if s.rng.Float64() < s.cfg.MigrateToEffProb {
				if cpu := s.pickCPUOfClass(p.affinity, hw.Efficiency); cpu >= 0 {
					s.assign(p, cpu, now)
				}
			}
		case hw.Efficiency:
			if s.rng.Float64() < s.cfg.MigrateToPerfProb {
				if cpu := s.pickCPUOfClass(p.affinity, hw.Performance); cpu >= 0 {
					s.assign(p, cpu, now)
				}
			}
		}
	}
}

// pickCPUOfClass returns the lowest free, online CPU of the class in the
// mask, or -1. It walks the mask's bits in place: this runs on the
// migration perturbation of every busy tick, where mask.IDs() would
// allocate.
func (s *Scheduler) pickCPUOfClass(mask hw.CPUSet, class hw.CoreClass) int {
	for v := uint64(mask); v != 0; v &= v - 1 {
		cpu := bits.TrailingZeros64(v)
		if cpu < len(s.byCPU) && s.byCPU[cpu] == nil && !s.offline[cpu] && s.m.TypeOf(cpu).Class == class {
			return cpu
		}
	}
	return -1
}
