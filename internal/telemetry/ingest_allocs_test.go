package telemetry_test

import (
	"runtime"
	"testing"
	"time"

	"hetpapi/internal/telemetry"
)

// TestAppendAllocations holds Store.Append to no allocation once every
// raw ring and rung ring of its series is full: only a new series or a
// ring still growing allocates. The eight series per machine are the
// fleet streamer's shape; the small capacities fill every ring within a
// few thousand appends.
func TestAppendAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are checked without the race detector")
	}
	const (
		rungCapacity = 4
		appends      = 100000
	)
	st := telemetry.NewStore(telemetry.Config{Capacity: 16, RungCapacity: rungCapacity})
	var keys []telemetry.Key
	for _, s := range []string{
		"power_w", "energy_j", "temp_c", "wall_w",
		telemetry.TypeSeriesName("P-core", "instructions"),
		telemetry.TypeSeriesName("P-core", "cycles"),
		telemetry.TypeSeriesName("E-core", "instructions"),
		telemetry.TypeSeriesName("E-core", "cycles"),
	} {
		keys = append(keys, telemetry.Key{Machine: "m0000", Series: s})
	}
	// One point per series per simulated second. The 1m rung closes a
	// bucket every 60 seconds, so rungCapacity+1 minutes fill it.
	sec := 0
	for ; sec <= (rungCapacity+1)*60; sec++ {
		for _, k := range keys {
			st.Append(k, float64(sec), float64(sec%97))
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	quiesce()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for end := sec + appends/len(keys); sec < end; sec++ {
		for _, k := range keys {
			st.Append(k, float64(sec), float64(sec%97))
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d appends into full rings allocated %d times, want 0", appends, n)
	}
}

// quiesce finishes any collection in flight and then waits until no
// goroutine allocates, so that a window measured with MemStats.Mallocs,
// which counts the whole process, counts only its own code. A
// collection wakes runtime goroutines that allocate (the unique
// package's map cleanup, finalizers); on a loaded host they can run
// long after it, inside the window.
func quiesce() {
	runtime.GC()
	var a, b runtime.MemStats
	for i := 0; i < 100; i++ {
		runtime.ReadMemStats(&a)
		time.Sleep(time.Millisecond)
		runtime.ReadMemStats(&b)
		if a.Mallocs == b.Mallocs {
			return
		}
	}
}
