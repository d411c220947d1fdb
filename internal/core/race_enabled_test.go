//go:build race

package core

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation adds allocations of its own and makes
// testing.AllocsPerRun bounds meaningless.
const raceEnabled = true
