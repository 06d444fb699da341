//go:build race

package promtext

// The race detector makes sync.Pool drop a share of what is put back,
// so the allocation test runs only without it.
func init() { raceEnabled = true }
