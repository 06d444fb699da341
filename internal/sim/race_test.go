//go:build race

package sim_test

// The race detector changes what the runtime allocates, so allocation
// counts are checked only without it.
func init() { raceEnabled = true }
