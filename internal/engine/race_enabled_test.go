//go:build race

package engine_test

// raceEnabled reports whether the race detector is active. Under race
// the runtime instruments allocations and sync.Pool drops items at
// random, so allocation-count assertions are meaningless.
const raceEnabled = true
