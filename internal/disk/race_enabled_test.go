//go:build race

package disk

// raceEnabled reports whether the race detector is active. Under race
// the runtime instruments allocations, so allocation-count assertions
// are meaningless.
const raceEnabled = true
