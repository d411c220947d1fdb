//go:build race

package queue

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates and makes the allocation and
// residency pins meaningless.
const raceEnabled = true
