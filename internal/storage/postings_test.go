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

// loadPostings runs a snapshot through the decoder a cold open uses,
// LoadPostingsPaged, and then faults every block, which validates its
// contents: the first error either step reports is returned.
func loadPostings(enc []byte, rn *core.Numbering) (*index.NameIndex, error) {
	ix, err := storage.LoadPostingsPaged(bytes.NewReader(enc), rn, storage.NewBlockStore(64))
	if err != nil {
		return nil, err
	}
	for _, name := range ix.Names() {
		pl := ix.Postings(name).List()
		for b := 0; b < pl.NumBlocks(); b++ {
			if _, err := pl.TryAppendBlock(b, nil); err != nil {
				return nil, err
			}
		}
	}
	return ix, nil
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
		od, err := orig.DataBytes()
		if err != nil {
			t.Fatal(err)
		}
		bd, err := back.DataBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(od, bd) {
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
// snapshot; every mutation must load as an error (loadPostings: the paged
// decoder, then a fault of every block) — or, when the flip lands in delta
// bytes without breaking structure, still pass full validation — and never
// panic.
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
