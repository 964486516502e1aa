//go:build !race

package index_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
