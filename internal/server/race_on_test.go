//go:build race

package server

// raceEnabled reports whether the race detector is active. Under -race,
// sync.Pool deliberately drops items at random, so steady-state
// allocation assertions on pooled buffers become flaky and are skipped.
const raceEnabled = true
