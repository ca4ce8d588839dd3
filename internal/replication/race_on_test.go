//go:build race

package replication

// raceEnabled reports whether the race detector instruments this build; the
// allocation count skips its assertion under it, as internal/bench's do.
const raceEnabled = true
