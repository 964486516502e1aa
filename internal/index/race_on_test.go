//go:build race

package index_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation budget test skips under it because sync.Pool deliberately drops
// entries in race mode.
const raceEnabled = true
