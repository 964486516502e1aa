//go:build race

package document_test

// raceEnabled reports whether the race detector is compiled in; the heap
// retention test runs on a smaller document under it.
const raceEnabled = true
