package storage

import (
	"bytes"
	"testing"
)

// blobPattern is an arbitrary byte sequence long enough to span several
// pages, with position-dependent content so a misplaced page read is
// detected immediately.
func blobPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/PageSize)
	}
	return b
}

func TestBlockStoreRoundTrip(t *testing.T) {
	s := NewBlockStore(4)
	big := blobPattern(3*PageSize + 123)
	small := []byte("tiny")
	if err := s.PutBlob("big", big); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlob("small", small); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlob("big", big); err == nil {
		t.Fatalf("duplicate PutBlob accepted (blobs are immutable)")
	}
	if len(s.blobs) != 2 || s.blobs["big"].size != len(big) || s.blobs["small"].size != len(small) {
		t.Fatalf("stored blobs %v", s.blobs)
	}

	// Ranges within a page, straddling page boundaries, and the full blob.
	for _, r := range [][2]int{
		{0, 10}, {100, 100}, {PageSize - 5, PageSize + 5},
		{2*PageSize - 1, 2*PageSize + 1}, {0, len(big)}, {len(big) - 3, len(big)},
	} {
		got, err := s.ReadRange("big", r[0], r[1], nil)
		if err != nil {
			t.Fatalf("ReadRange%v: %v", r, err)
		}
		if !bytes.Equal(got, big[r[0]:r[1]]) {
			t.Fatalf("ReadRange%v returned wrong bytes", r)
		}
	}
	// Append semantics: the range lands after existing dst content.
	got, err := s.ReadRange("small", 0, 4, []byte("pre:"))
	if err != nil || string(got) != "pre:tiny" {
		t.Fatalf("ReadRange append = %q, %v", got, err)
	}

	if _, err := s.ReadRange("nope", 0, 1, nil); err == nil {
		t.Fatalf("unknown blob accepted")
	}
	for _, r := range [][2]int{{-1, 2}, {5, 4}, {0, len(big) + 1}} {
		if _, err := s.ReadRange("big", r[0], r[1], nil); err == nil {
			t.Fatalf("out-of-range %v accepted", r)
		}
	}

	// A blob survives a cold restart of the pool, and the fault count equals
	// the pages the range spans.
	s.pager.Flush()
	s.pager.DropCache()
	s.pager.ResetStats()
	if _, err := s.ReadRange("big", 0, len(big), nil); err != nil {
		t.Fatal(err)
	}
	if st := s.pager.Stats(); st.Reads != 4 {
		t.Fatalf("cold full read faulted %d pages, want 4", st.Reads)
	}
	s.pager.ResetStats()
	if _, err := s.ReadRange("big", 3*PageSize, len(big), nil); err != nil {
		t.Fatal(err)
	}
	if st := s.pager.Stats(); st.Reads != 0 || st.CacheHits != 1 {
		t.Fatalf("warm tail read: %v, want one hit and no reads", st)
	}
}
