package perfevent

// Tests for the descriptor table: every kind of bad descriptor is EBADF
// on every entry point, NumOpen sees past the holes that closed
// descriptors leave, and the per-tick entry points allocate nothing, on
// live and on dead descriptors.

import (
	"errors"
	"fmt"
	"testing"

	"hetpapi/internal/events"
	"hetpapi/internal/hw"
)

func TestBadDescriptorsAreEBADF(t *testing.T) {
	m := hw.RaptorLake()
	k := NewKernel(m)
	attr := attrFor(t, m, "adl_glc", "INST_RETIRED", "ANY")
	var fds []int
	for i := 0; i < 3; i++ {
		fd, err := k.Open(attr, 100, -1, -1)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	closed := fds[1] // a hole between two live descriptors
	if err := k.Close(closed); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		fd   int
	}{
		{"closed", closed},
		{"negative", -2},
		{"never-opened", 0},
		{"past-the-end", fds[2] + 100},
	}
	for _, b := range bad {
		if _, err := k.Read(b.fd); !errors.Is(err, ErrBadFD) {
			t.Errorf("Read(%s fd %d) = %v, want EBADF", b.name, b.fd, err)
		}
		if got, err := k.ReadGroup(b.fd); !errors.Is(err, ErrBadFD) || got != nil {
			t.Errorf("ReadGroup(%s fd %d) = %v, %v, want nil, EBADF", b.name, b.fd, got, err)
		}
		dst := make([]Count, 2, 4)
		if got, err := k.ReadGroupInto(b.fd, dst); !errors.Is(err, ErrBadFD) || len(got) != 0 {
			t.Errorf("ReadGroupInto(%s fd %d) = %v, %v, want empty, EBADF", b.name, b.fd, got, err)
		}
		if err := k.Close(b.fd); !errors.Is(err, ErrBadFD) {
			t.Errorf("Close(%s fd %d) = %v, want EBADF", b.name, b.fd, err)
		}
		if fd, err := k.Open(attr, 100, -1, b.fd); !errors.Is(err, ErrBadFD) || fd != -1 {
			t.Errorf("Open(group %s fd %d) = %d, %v, want -1, EBADF", b.name, b.fd, fd, err)
		}
	}
	// -1 is "no descriptor" everywhere but Open's group fd, where it
	// starts a new group.
	if _, err := k.Read(-1); !errors.Is(err, ErrBadFD) {
		t.Errorf("Read(-1) = %v, want EBADF", err)
	}
	if err := k.Close(-1); !errors.Is(err, ErrBadFD) {
		t.Errorf("Close(-1) = %v, want EBADF", err)
	}
	// The live descriptors on both sides of the hole are untouched.
	for _, fd := range []int{fds[0], fds[2]} {
		if _, err := k.Read(fd); err != nil {
			t.Errorf("Read(live fd %d) = %v", fd, err)
		}
	}
}

func TestNumOpenTracksOpensAndCloses(t *testing.T) {
	m := hw.RaptorLake()
	k := NewKernel(m)
	inst := attrFor(t, m, "adl_glc", "INST_RETIRED", "ANY")
	cyc := attrFor(t, m, "adl_glc", "CPU_CLK_UNHALTED", "THREAD")
	want := 0
	check := func(when string) {
		t.Helper()
		if got := k.NumOpen(); got != want {
			t.Fatalf("%s: NumOpen = %d, want %d", when, got, want)
		}
	}
	check("fresh kernel")
	leader, err := k.Open(inst, 100, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := k.Open(cyc, 100, -1, leader)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := k.Open(inst, -1, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	want = 3
	check("after three opens")
	// Failed opens and failed closes change nothing.
	if _, err := k.Open(inst, 100, -1, 999); err == nil {
		t.Fatal("open into a missing group succeeded")
	}
	if err := k.Close(999); err == nil {
		t.Fatal("closing a missing fd succeeded")
	}
	check("after failed open and close")
	if err := k.Close(sib); err != nil {
		t.Fatal(err)
	}
	want = 2
	check("after closing the sibling")
	if err := k.Close(sib); !errors.Is(err, ErrBadFD) {
		t.Fatalf("double close = %v, want EBADF", err)
	}
	check("after a double close")
	for _, fd := range []int{leader, wide} {
		if err := k.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	want = 0
	check("after closing everything")
	// Descriptors are never reused: the next open gets a fresh number.
	fd, err := k.Open(inst, 100, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if fd <= wide {
		t.Fatalf("reopen got fd %d, want one past %d", fd, wide)
	}
	want = 1
	check("after reopening")
}

func TestHotPathsAllocateNothing(t *testing.T) {
	m := hw.RaptorLake()
	k := NewKernel(m)
	inst := attrFor(t, m, "adl_glc", "INST_RETIRED", "ANY")
	cyc := attrFor(t, m, "adl_glc", "CPU_CLK_UNHALTED", "THREAD")
	leader, err := k.Open(inst, 100, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Open(cyc, 100, -1, leader); err != nil {
		t.Fatal(err)
	}
	// A CPU-wide event on the same CPU, as the scenario harness keeps.
	wide, err := k.Open(inst, -1, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	st := events.Stats{Instructions: 1e6, Cycles: 5e5}
	if n := testing.AllocsPerRun(100, func() { k.TaskExec(100, 0, 0.001, st) }); n != 0 {
		t.Errorf("TaskExec with a sibling group allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := k.Read(wide); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Read allocates %.1f times, want 0", n)
	}
	dst := make([]Count, 0, 2)
	if n := testing.AllocsPerRun(100, func() {
		got, err := k.ReadGroupInto(leader, dst)
		if err != nil || len(got) != 2 {
			t.Fatalf("ReadGroupInto = %v, %v", got, err)
		}
		if got[0].Value == 0 || got[1].Value == 0 {
			t.Fatalf("group did not count: %+v", got)
		}
	}); n != 0 {
		t.Errorf("ReadGroupInto allocates %.1f times, want 0", n)
	}
	// ReadGroup is the allocating wrapper: one fresh slice per call.
	if n := testing.AllocsPerRun(100, func() { _, _ = k.ReadGroup(leader) }); n != 1 {
		t.Errorf("ReadGroup allocates %.1f times, want 1", n)
	}

	// Contended: three more singletons and a counter budget of 2 against
	// a demand of 6 counters. Every call crosses a multiplex window, so
	// the groups rotate and every TaskExec rebuilds its credit plan.
	singles := []int{wide}
	for _, a := range []Attr{inst, cyc, attrFor(t, m, "adl_glc", "BR_INST_RETIRED", "ALL_BRANCHES")} {
		fd, err := k.Open(a, 100, -1, -1)
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, fd)
	}
	k.SetCounterBudget(m.TypeOf(0).PMU.PerfType, 2)
	now := k.Now()
	if n := testing.AllocsPerRun(100, func() {
		k.TaskExec(100, 0, 0.001, st)
		now += k.muxTick
		k.Advance(now)
	}); n != 0 {
		t.Errorf("TaskExec under a counter budget allocates %.1f times, want 0", n)
	}
	for _, fd := range append(singles, leader) {
		c, err := k.Read(fd)
		if err != nil {
			t.Fatal(err)
		}
		if c.TimeRunning <= 0 || c.TimeRunning >= c.TimeEnabled {
			t.Errorf("fd %d ran %.3f of %.3f s enabled; the budget must rotate it", fd, c.TimeRunning, c.TimeEnabled)
		}
	}
}

// TestDeadDescriptorErrorsAllocateNothing pins the hotplug error path the
// counter-monotonic audit takes every tick on a chaos machine: once a
// descriptor is dead, Read, ReadGroupInto and Enable return its cached
// ErrNoSuchDevice error, with the same text on every touch.
func TestDeadDescriptorErrorsAllocateNothing(t *testing.T) {
	m := hw.RaptorLake()
	k := NewKernel(m)
	inst := attrFor(t, m, "adl_glc", "INST_RETIRED", "ANY")
	fd, err := k.Open(inst, -1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetCPUOnline(2, false)
	_, first := k.Read(fd)
	want := fmt.Sprintf("%v: fd %d was invalidated by cpu2 going offline", ErrNoSuchDevice, fd)
	if !errors.Is(first, ErrNoSuchDevice) || first.Error() != want {
		t.Fatalf("Read(dead fd) = %v, want %q", first, want)
	}
	dst := make([]Count, 0, 2)
	ops := []struct {
		name string
		op   func() error
	}{
		{"Read", func() error { _, err := k.Read(fd); return err }},
		{"ReadGroupInto", func() error { _, err := k.ReadGroupInto(fd, dst); return err }},
		{"Enable", func() error { return k.Enable(fd) }},
	}
	for _, o := range ops {
		var got error
		if n := testing.AllocsPerRun(100, func() { got = o.op() }); n != 0 {
			t.Errorf("%s on a dead fd allocates %.1f times, want 0", o.name, n)
		}
		if !errors.Is(got, ErrNoSuchDevice) || got.Error() != want {
			t.Errorf("%s on a dead fd = %v, want %q", o.name, got, want)
		}
	}
	// Re-onlining the CPU does not revive the descriptor or change its error.
	k.SetCPUOnline(2, true)
	if _, err := k.Read(fd); err == nil || err.Error() != want {
		t.Errorf("Read(dead fd) after re-online = %v, want %q", err, want)
	}
}
