//go:build race

package core

// The race detector changes what the runtime allocates, so allocation
// counts are checked only without it.
func init() { raceEnabled = true }
