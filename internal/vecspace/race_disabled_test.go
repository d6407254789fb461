//go:build !race

package vecspace

// raceEnabled reports whether the race detector is compiled in; the
// allocation-regression tests skip under it (instrumentation allocates).
const raceEnabled = false
