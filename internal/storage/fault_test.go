package storage

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
)

// pagedFixture stores a valid posting list as a blob and returns both the
// paged view and the resident original, plus the block store for fault
// injection. The list is large enough to span several pages and many
// blocks.
func pagedFixture(t *testing.T) (*BlockStore, *index.PostingList, *index.PostingList) {
	t.Helper()
	ids := make([]core.ID, 0, 40000)
	for i := 0; i < 40000; i++ {
		ids = append(ids, core.ID{Global: int64(2 + i/500), Local: int64(1 + i%500)})
	}
	pl := index.BuildPostingList(ids)
	data, err := pl.DataBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 3*PageSize {
		t.Fatalf("fixture too small: %d data bytes", len(data))
	}
	bs := NewBlockStore(4)
	if err := bs.PutBlob("px:t", data); err != nil {
		t.Fatal(err)
	}
	bs.pager.Flush()
	bs.pager.DropCache()
	ppl, err := index.PagedPostingList(pl.Skips(), pl.Len(), len(data), bs.Source("px:t"))
	if err != nil {
		t.Fatal(err)
	}
	return bs, ppl, pl
}

// TestPagedBlocksTornPageRejected: a torn page write — half a page of the
// blob region replaced by other bytes, as a crashed partial sector write
// would leave it — must surface as a decode error from every affected
// block on the next fault, never as silently wrong postings: a block's
// contents are validated at fault time.
func TestPagedBlocksTornPageRejected(t *testing.T) {
	bs, ppl, pl := pagedFixture(t)

	// Baseline: the paged list decodes block-for-block identically.
	for b := 0; b < ppl.NumBlocks(); b++ {
		got, err := ppl.TryAppendBlock(b, nil)
		if err != nil {
			t.Fatalf("pristine block %d: %v", b, err)
		}
		want := pl.AppendBlock(b, nil)
		if len(got) != len(want) {
			t.Fatalf("pristine block %d: %d ids, want %d", b, len(got), len(want))
		}
	}

	// Tear the second data page: its first half becomes garbage directly on
	// "disk", bypassing the pager API exactly like a torn hardware write.
	p := bs.pager
	p.mu.Lock()
	pageID := bs.blobs["px:t"].pages[1]
	for i := 0; i < PageSize/2; i++ {
		p.disk[pageID][i] = 0xEE
	}
	p.mu.Unlock()
	bs.pager.DropCache()

	bad, ok := 0, 0
	for b := 0; b < ppl.NumBlocks(); b++ {
		if _, err := ppl.TryAppendBlock(b, nil); err != nil {
			bad++
		} else {
			ok++
		}
	}
	if bad == 0 {
		t.Fatalf("no block rejected a torn page (%d blocks decoded)", ok)
	}
	if ok == 0 {
		t.Fatalf("every block failed; tear was supposed to hit only part of the region")
	}

	// The panicking fast path wraps the same failure in *index.PagedError so
	// the query layer can recover it into an error return.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("AppendBlock on a torn block did not panic")
		}
		pe, isPE := r.(*index.PagedError)
		if !isPE {
			panic(r)
		}
		if pe.Err == nil {
			t.Fatalf("PagedError without cause")
		}
	}()
	for b := 0; b < ppl.NumBlocks(); b++ {
		ppl.AppendBlock(b, nil)
	}
}

// TestPagedBlocksPartialFlushRejected: a crash that loses the dirty tail of
// the pool ("partial flush") leaves the blob's later pages zeroed on disk.
// Blocks over the flushed prefix still decode; blocks over the lost suffix
// are rejected at fault time.
func TestPagedBlocksPartialFlushRejected(t *testing.T) {
	ids := make([]core.ID, 0, 40000)
	for i := 0; i < 40000; i++ {
		ids = append(ids, core.ID{Global: int64(2 + i/500), Local: int64(1 + i%500)})
	}
	pl := index.BuildPostingList(ids)
	data, err := pl.DataBytes()
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBlockStore(4)
	if err := bs.PutBlob("px:t", data); err != nil {
		t.Fatal(err)
	}
	// Crash before Flush: discard the pool without writing dirty frames
	// back. Earlier pages were already written back by eviction pressure
	// during PutBlob (the pool holds only 4 frames); the tail is lost.
	p := bs.pager
	p.mu.Lock()
	lost := 0
	for _, f := range p.frames {
		if f.dirty {
			lost++
		}
	}
	p.frames = map[int32]*frame{}
	p.clock = nil
	p.hand = 0
	p.mu.Unlock()
	if lost == 0 {
		t.Fatalf("no dirty frames to lose; fixture does not model a partial flush")
	}

	ppl, err := index.PagedPostingList(pl.Skips(), pl.Len(), len(data), bs.Source("px:t"))
	if err != nil {
		t.Fatal(err)
	}
	bad, ok := 0, 0
	for b := 0; b < ppl.NumBlocks(); b++ {
		if _, err := ppl.TryAppendBlock(b, nil); err != nil {
			bad++
		} else {
			ok++
		}
	}
	if bad == 0 {
		t.Fatalf("zeroed tail pages decoded cleanly (%d blocks)", ok)
	}
	if ok == 0 {
		t.Fatalf("flushed prefix should still decode")
	}
}

// WAL fault injection: the write path's durability claims live or die on
// recovery behavior under torn writes, truncated tails and bit rot. Each
// scenario is injected directly into the on-disk segment, the way a
// crashed or corrupted disk would leave it; the helpers live in
// wal_test.go.

// TestWALTornWriteDropped: a crash mid-append leaves half a frame at the
// tail. Recovery must replay every record before it and cut the torn bytes,
// and the log must keep working.
func TestWALTornWriteDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.wal")
	walRoundTrip(t, path, SyncAlways, [][]byte{[]byte("one"), []byte("two")})

	// Simulate the torn write: a full frame header promising 100 bytes but
	// only 7 payload bytes on disk.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], 100)
	binary.LittleEndian.PutUint32(frame[4:8], 0xDEADBEEF)
	f.Write(frame[:])
	f.Write([]byte("partial"))
	f.Close()

	got, w := recoverAll(t, path)
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want 2", len(got))
	}
	if st := w.Stats(); st.Truncated != 8+7 {
		t.Fatalf("truncated %d bytes, want 15", st.Truncated)
	}
	if _, err := w.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, w2 := recoverAll(t, path)
	w2.Close()
	if len(got) != 3 || string(got[2]) != "three" {
		t.Fatalf("after repair+append: %q", got)
	}
}

// TestWALTruncatedTail: the file ends mid frame header (crash during the
// length word). Every preceding record survives.
func TestWALTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.wal")
	walRoundTrip(t, path, SyncAlways, [][]byte{[]byte("aa"), []byte("bb"), []byte("cc")})
	info, _ := os.Stat(path)
	if err := os.Truncate(path, info.Size()-(8+2)-3); err != nil {
		t.Fatal(err) // cut the last record and 3 bytes into the one before
	}
	got, w := recoverAll(t, path)
	defer w.Close()
	if len(got) != 1 || string(got[0]) != "aa" {
		t.Fatalf("recovered %q, want [aa]", got)
	}
}

// TestWALCRCCorruption: flipping one payload bit invalidates that record
// and everything after it — a corrupt middle means the tail cannot be
// trusted — while the prefix replays intact.
func TestWALCRCCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.wal")
	walRoundTrip(t, path, SyncAlways, [][]byte{[]byte("first"), []byte("second"), []byte("third")})

	// Flip a bit inside "second"'s payload.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(walMagic) + 8 + len("first") + 8 // start of second payload
	b[off] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	got, w := recoverAll(t, path)
	defer w.Close()
	if len(got) != 1 || string(got[0]) != "first" {
		t.Fatalf("recovered %q, want [first]", got)
	}
	if st := w.Stats(); st.Truncated == 0 {
		t.Fatalf("corrupt tail not truncated: %+v", st)
	}
}

// TestWALHeaderCorruption: a mangled segment header is a hard error, not a
// silent empty recovery.
func TestWALHeaderCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.wal")
	walRoundTrip(t, path, SyncNone, [][]byte{[]byte("x")})
	b, _ := os.ReadFile(path)
	b[0] = 'X'
	os.WriteFile(path, b, 0o644)
	if _, err := OpenWAL(path, SyncNone, nil); err == nil {
		t.Fatal("corrupt header accepted")
	}
}
