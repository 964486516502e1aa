package storage

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
)

// faultStore wraps a Pager and fails reads after a countdown, simulating a
// bad sector mid-operation. Both page access paths — Read and Pin — count
// against and trip the same fault, since the B-tree prefers Pin when the
// store supports it.
type faultStore struct {
	*Pager
	failAfter int // fail every Read/Pin once the counter reaches zero
	reads     int
}

var errInjected = errors.New("storage: injected read fault")

func (f *faultStore) Read(id int32) ([]byte, error) {
	f.reads++
	if f.failAfter >= 0 && f.reads > f.failAfter {
		return nil, errInjected
	}
	return f.Pager.Read(id)
}

func (f *faultStore) Pin(id int32) (*PinnedPage, error) {
	f.reads++
	if f.failAfter >= 0 && f.reads > f.failAfter {
		return nil, errInjected
	}
	return f.Pager.Pin(id)
}

// TestBTreeReadFaultPropagation: read faults surface as errors from every
// B+tree operation instead of being swallowed or panicking.
func TestBTreeReadFaultPropagation(t *testing.T) {
	fs := &faultStore{Pager: NewPager(64), failAfter: -1}
	tr := NewBTree(fs)
	for v := 0; v < 2000; v++ {
		if err := tr.Put(key64(uint64(v)), []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	// From now on every read fails.
	fs.failAfter = 0
	fs.reads = 1

	if _, _, err := tr.Get(key64(5)); !errors.Is(err, errInjected) {
		t.Fatalf("Get error = %v, want injected fault", err)
	}
	if err := tr.Put(key64(9999), []byte{1}); !errors.Is(err, errInjected) {
		t.Fatalf("Put error = %v, want injected fault", err)
	}
	if _, err := tr.Delete(key64(5)); !errors.Is(err, errInjected) {
		t.Fatalf("Delete error = %v, want injected fault", err)
	}
	if err := tr.Scan(nil, nil, func(_, _ []byte) bool { return true }); !errors.Is(err, errInjected) {
		t.Fatalf("Scan error = %v, want injected fault", err)
	}
	if _, err := tr.Height(); !errors.Is(err, errInjected) {
		t.Fatalf("Height error = %v, want injected fault", err)
	}

	// Intermittent fault: the tree stays usable once reads recover.
	fs.failAfter = -1
	if _, ok, err := tr.Get(key64(5)); err != nil || !ok {
		t.Fatalf("recovered Get: ok=%v err=%v", ok, err)
	}
}

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
	bs.Pager().Flush()
	bs.DropCache()
	ppl, err := index.PagedPostingList(pl.Skips(), pl.Len(), len(data), bs.Source("px:t"))
	if err != nil {
		t.Fatal(err)
	}
	return bs, ppl, pl
}

// TestPagedBlocksTornPageRejected: a torn page write — half a page of the
// blob region replaced by other bytes, as a crashed partial sector write
// would leave it — must surface as a decode error from every affected
// block on the next fault, never as silently wrong postings. This is the
// paged analogue of LoadPostings' full revalidation: the same checks run
// per block at fault time.
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
	p := bs.Pager()
	p.mu.Lock()
	pageID := bs.blobs["px:t"].pages[1]
	for i := 0; i < PageSize/2; i++ {
		p.disk[pageID][i] = 0xEE
	}
	p.mu.Unlock()
	bs.DropCache()

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
	p := bs.Pager()
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

// TestBTreeRejectsOversizedEntries: keys and values beyond the page budget
// are refused up front.
func TestBTreeRejectsOversizedEntries(t *testing.T) {
	tr := NewBTree(NewPager(8))
	if err := tr.Put(make([]byte, PageSize), []byte("v")); err == nil {
		t.Fatalf("oversized key accepted")
	}
	if err := tr.Put([]byte("k"), make([]byte, PageSize)); err == nil {
		t.Fatalf("oversized value accepted")
	}
	if tr.Len() != 0 {
		t.Fatalf("rejected entries counted")
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
