//go:build race

package telemetry_test

// The race detector makes sync.Pool drop a share of what is put back,
// so allocation ceilings are checked only without it.
func init() { raceEnabled = true }
