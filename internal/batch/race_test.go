//go:build race

package batch

// raceEnabled: the race detector's sync.Pool drops a quarter of what is
// put back, so pooled scratch is re-grown and allocation counts drift.
const raceEnabled = true
