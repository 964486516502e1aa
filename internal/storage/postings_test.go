package storage_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func libraryXML() string { return libraryOf(4, 6) }

func libraryOf(shelves, books int) string {
	var sb strings.Builder
	sb.WriteString("<lib>")
	for s := 0; s < shelves; s++ {
		sb.WriteString("<shelf>")
		for b := 0; b < books; b++ {
			fmt.Fprintf(&sb, "<book><title>t%d.%d</title></book>", s, b)
		}
		sb.WriteString("</shelf>")
	}
	sb.WriteString("</lib>")
	return sb.String()
}

// loadPostings runs a snapshot through the loader a bundle open uses.
func loadPostings(enc []byte, rn *core.Numbering) (*index.NameIndex, error) {
	return storage.LoadPostings(bytes.NewReader(enc), rn)
}

// checkRoundTrip encodes ix, decodes it back, and requires the reassembled
// index to hold byte-identical posting lists (same data, same skip table,
// same decoded identifiers) and the re-encoding to reproduce the snapshot
// bytes exactly.
func checkRoundTrip(t *testing.T, ix *index.NameIndex) []byte {
	t.Helper()
	enc, err := storage.EncodePostings(ix)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := loadPostings(enc, ix.RUID())
	if err != nil {
		t.Fatal(err)
	}
	names := ix.Names()
	if got := loaded.Names(); len(got) != len(names) {
		t.Fatalf("loaded %d names, want %d", len(got), len(names))
	}
	for _, name := range names {
		orig, back := ix.Postings(name).List(), loaded.Postings(name).List()
		if back == nil {
			t.Fatalf("%q: lost in round trip", name)
		}
		if !bytes.Equal(orig.DataBytes(), back.DataBytes()) {
			t.Fatalf("%q: delta bytes differ after round trip", name)
		}
		os, bs := orig.Skips(), back.Skips()
		if len(os) != len(bs) {
			t.Fatalf("%q: %d blocks back, want %d", name, len(bs), len(os))
		}
		for i := range os {
			if os[i] != bs[i] {
				t.Fatalf("%q: skip %d differs: %+v vs %+v", name, i, bs[i], os[i])
			}
		}
		a, b := orig.AppendAll(nil), back.AppendAll(nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%q: posting %d differs", name, i)
			}
		}
	}
	reenc, err := storage.EncodePostings(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, reenc) {
		t.Fatal("re-encoding a loaded snapshot changed the bytes")
	}
	return enc
}

// TestPostingsSnapshotGolden pins the exact serialized form: any change to
// the snapshot layout must be deliberate (rerun with -update) because old
// snapshots stop loading.
func TestPostingsSnapshotGolden(t *testing.T) {
	d, err := document.OpenString(libraryXML(), document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 12, AdjustFanout: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := checkRoundTrip(t, d.Snapshot().Index())
	golden := filepath.Join("testdata", "postings_golden.bin")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("snapshot bytes differ from golden (%d vs %d bytes); rerun with -update if the format change is intended", len(enc), len(want))
	}
}

// TestPostingsSnapshotUnderUpdates is the property test of the acceptance
// bar: after any randomized history of inserts and deletes flowing through
// the incremental ApplyDelta publication path, every published epoch's
// postings survive Save/Load byte-exactly. The document's lists span
// several blocks, so the block splice splits full blocks and coalesces
// drained ones, and the partial-fill blocks that leaves in the middle of a
// list are part of what must round-trip.
func TestPostingsSnapshotUnderUpdates(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d, err := document.OpenString(libraryOf(4, 50), document.Options{
				Partition: core.PartitionConfig{MaxAreaNodes: 12, AdjustFanout: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			var split, coalesced, partial bool
			blocks := d.Snapshot().Index().Postings("book").List().NumBlocks()
			check := func() {
				t.Helper()
				ix := d.Snapshot().Index()
				checkRoundTrip(t, ix)
				sks := ix.Postings("book").List().Skips()
				split = split || len(sks) > blocks
				coalesced = coalesced || len(sks) < blocks
				blocks = len(sks)
				for _, sk := range sks[:len(sks)-1] {
					partial = partial || sk.N < index.BlockSize
				}
			}
			r := rand.New(rand.NewSource(seed))
			next := 1000
			for step := 0; step < 60; step++ {
				shelf := fmt.Sprintf("/lib/shelf[%d]", r.Intn(4)+1)
				if r.Intn(3) == 0 {
					_, _ = d.Delete(shelf, 0)
				} else {
					book := xmltree.NewElement("book")
					title := xmltree.NewElement("title")
					title.AppendChild(xmltree.NewText(fmt.Sprintf("n%d", next)))
					book.AppendChild(title)
					next++
					if _, err := d.Insert(shelf, r.Intn(3), book); err != nil {
						if _, err := d.Insert(shelf, 0, book); err != nil {
							t.Fatalf("step %d: insert: %v", step, err)
						}
					}
				}
				check()
			}
			// Drain one shelf: its blocks shrink until they fit a neighbour.
			for i := 0; i < 45; i++ {
				if _, err := d.Delete("/lib/shelf[1]", 0); err != nil {
					t.Fatalf("drain %d: %v", i, err)
				}
				check()
			}
			if !split || !coalesced || !partial {
				t.Fatalf("history split=%v coalesced=%v partial-fill=%v: it never left Build's block layout",
					split, coalesced, partial)
			}
		})
	}
}

// TestLoadPostingsRejectsCorruption flips bits and truncates a valid
// snapshot; every mutation must load as an error — or, when the flip lands
// in delta bytes without breaking structure, still pass full validation —
// and never panic. A torn last varint of the delta bytes must be an error.
func TestLoadPostingsRejectsCorruption(t *testing.T) {
	d, err := document.OpenString(libraryXML(), document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 12, AdjustFanout: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := d.Snapshot().Index()
	enc, err := storage.EncodePostings(ix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadPostings(enc[:0], ix.RUID()); err == nil {
		t.Error("empty snapshot accepted")
	}
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := loadPostings(enc[:cut], ix.RUID()); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// The snapshot ends with the delta bytes of its last name's last block,
	// and a varint's last byte has no continuation bit: setting it leaves
	// the block's final entry undecodable.
	torn := append([]byte(nil), enc...)
	torn[len(torn)-1] |= 0x80
	if _, err := loadPostings(torn, ix.RUID()); err == nil || !strings.Contains(err.Error(), "does not decode") {
		t.Errorf("torn delta bytes: err %v, want a block that does not decode", err)
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), enc...)
		mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
		// A flip may load as an error or, when it lands in delta bytes
		// without breaking structure or document order, as a valid index.
		// Either outcome is fine; both must be panic-free.
		_, _ = loadPostings(mut, ix.RUID())
	}
}

// diskPage is the unit a crashed disk tears or loses: one 4 KiB page.
const diskPage = 4096

// faultFixture returns the postings snapshot of a document whose largest
// posting list spans several disk pages of delta bytes, with that list's
// skip table and the offset of its delta bytes inside the snapshot.
func faultFixture(t *testing.T) (enc []byte, rn *core.Numbering, skips []index.Skip, dataOff, dataLen int) {
	t.Helper()
	d, err := document.OpenString(libraryOf(40, 250), document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 12, AdjustFanout: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := d.Snapshot().Index()
	if enc, err = storage.EncodePostings(ix); err != nil {
		t.Fatal(err)
	}
	var data []byte
	for _, name := range ix.Names() {
		if pl := ix.Postings(name).List(); pl != nil && len(pl.DataBytes()) > len(data) {
			data, skips = pl.DataBytes(), pl.Skips()
		}
	}
	if len(data) < 3*diskPage {
		t.Fatalf("fixture too small: %d data bytes", len(data))
	}
	dataOff = bytes.Index(enc, data)
	if dataOff < 0 || bytes.Index(enc[dataOff+1:], data) >= 0 {
		t.Fatal("delta bytes not found once in the snapshot")
	}
	if _, err := loadPostings(enc, ix.RUID()); err != nil {
		t.Fatalf("pristine snapshot: %v", err)
	}
	return enc, ix.RUID(), skips, dataOff, len(data)
}

// checkPrefixLoads requires the blocks whose delta bytes end at or before
// cut to still validate on their own: a fault rejects the blocks it hits,
// not the bytes before it.
func checkPrefixLoads(t *testing.T, enc []byte, skips []index.Skip, dataOff, cut int) {
	t.Helper()
	k, n := 0, 0
	for k < len(skips) && int(skips[k].End) <= cut {
		n += int(skips[k].N)
		k++
	}
	if k == 0 || k == len(skips) {
		t.Fatalf("fault at byte %d leaves %d of %d blocks before it", cut, k, len(skips))
	}
	end := int(skips[k-1].End)
	if _, err := index.PostingListFromParts(skips[:k], n, enc[dataOff:dataOff+end]); err != nil {
		t.Fatalf("%d blocks before the fault: %v", k, err)
	}
}

// TestPagedBlocksTornPageRejected: a torn page write — half a page of a
// posting list's delta bytes replaced by other bytes, as a crashed partial
// sector write would leave it — must surface as a load error, never as
// silently wrong postings, while the blocks before the tear still validate.
func TestPagedBlocksTornPageRejected(t *testing.T) {
	enc, rn, skips, dataOff, _ := faultFixture(t)
	torn := append([]byte(nil), enc...)
	for i := diskPage; i < diskPage+diskPage/2; i++ {
		torn[dataOff+i] = 0xEE
	}
	if _, err := loadPostings(torn, rn); err == nil {
		t.Fatal("snapshot with a torn page loaded")
	}
	checkPrefixLoads(t, torn, skips, dataOff, diskPage)
}

// TestPagedBlocksPartialFlushRejected: a crash that loses the unflushed
// tail of a write leaves a posting list's later pages zeroed. The load is
// rejected; the blocks over the flushed prefix still validate.
func TestPagedBlocksPartialFlushRejected(t *testing.T) {
	enc, rn, skips, dataOff, dataLen := faultFixture(t)
	lost := append([]byte(nil), enc...)
	flushed := 2 * diskPage
	for i := flushed; i < dataLen; i++ {
		lost[dataOff+i] = 0
	}
	if _, err := loadPostings(lost, rn); err == nil {
		t.Fatal("snapshot with zeroed tail pages loaded")
	}
	checkPrefixLoads(t, lost, skips, dataOff, flushed)
}
