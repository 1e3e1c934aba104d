//go:build race

package core

// raceEnabled reports whether the race detector is on. It changes
// allocation counts (sync.Pool drops items at random under -race), so the
// allocation gate skips itself.
const raceEnabled = true
