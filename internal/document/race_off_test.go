//go:build !race

package document_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
