//go:build race

package compute

// raceEnabled reports whether the race detector is active. Under -race,
// sync.Pool deliberately drops items at random, so steady-state
// allocation assertions on pooled scratch become flaky and are skipped.
const raceEnabled = true
