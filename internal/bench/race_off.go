//go:build !race

package bench

// raceEnabled reports whether the race detector instruments this build.
// The stress test scales down under -race, where every memory access pays
// instrumentation cost, and the allocation ledger skips: the race runtime
// allocates on paths the production build does not.
const raceEnabled = false
