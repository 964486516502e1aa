package storage

import (
	"testing"

	"repro/internal/obs"
)

// TestPagerObserver checks that SetObserver mirrors the pager's I/O
// accounting into the registry — including the zero-read property: serving
// a page from the pool must count a cache hit, not a read.
func TestPagerObserver(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPager(4)
	p.SetObserver(reg)
	id := p.Alloc()
	if _, err := readPage(p, id); err != nil {
		t.Fatal(err)
	}
	if _, err := readPage(p, id); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	p.Flush()

	st := p.Stats()
	if got := int64(reg.Counter("storage.page_reads").Value()); got != st.Reads {
		t.Errorf("page_reads = %d, IOStats.Reads = %d", got, st.Reads)
	}
	if got := int64(reg.Counter("storage.cache_hits").Value()); got != st.CacheHits {
		t.Errorf("cache_hits = %d, IOStats.CacheHits = %d", got, st.CacheHits)
	}
	if got := int64(reg.Counter("storage.page_writes").Value()); got != st.Writes {
		t.Errorf("page_writes = %d, IOStats.Writes = %d", got, st.Writes)
	}
	if st.Reads != 1 || st.CacheHits < 2 || st.Writes != 1 {
		t.Errorf("unexpected traffic: %v", st)
	}

	// Detaching stops the mirroring but leaves IOStats counting.
	p.SetObserver(nil)
	if _, err := readPage(p, id); err != nil {
		t.Fatal(err)
	}
	if got := int64(reg.Counter("storage.cache_hits").Value()); got == p.Stats().CacheHits {
		t.Error("detached observer still mirrored")
	}
}
