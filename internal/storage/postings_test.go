package storage_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
	loaded, err := storage.LoadPostings(bytes.NewReader(enc), ix.RUID())
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

// TestPostingsHistoryGolden pins where the block splice puts block
// boundaries: the postings of XMark 20 after a fixed seeded history — 500
// writes published one by one, then ten batches of 32 published as one
// epoch each — must serialize to the committed bytes. Boundaries are a
// function of the update history alone, so a change to how a splice stores
// or shares blocks must reproduce them exactly.
func TestPostingsHistoryGolden(t *testing.T) {
	d, err := document.OpenString(xmltree.Serialize(xmltree.XMark(20, 1)), document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	auctions := len(d.Snapshot().Tree().DocumentElement().FirstChildElement("open_auctions").ChildElements("open_auction"))
	r := rand.New(rand.NewSource(25))
	// write returns one seeded mutation of a random open_auction: an insert
	// of a bidder right after <initial>, or the delete of that position.
	type write struct {
		insert bool
		parent string
	}
	next := func() write {
		return write{r.Intn(5) < 3, fmt.Sprintf("/site/open_auctions/open_auction[%d]", 1+r.Intn(auctions))}
	}
	bidder := func() *xmltree.Node {
		b := xmltree.NewElement("bidder")
		inc := xmltree.NewElement("increase")
		inc.AppendChild(xmltree.NewText("1.50"))
		b.AppendChild(inc)
		return b
	}
	for i := 0; i < 500; i++ {
		// A refused write (no child at position 1) is part of the history too.
		if w := next(); w.insert {
			_, _ = d.Insert(w.parent, 1, bidder())
		} else {
			_, _ = d.Delete(w.parent, 1)
		}
	}
	if err := d.EnableGroupCommit(document.GroupConfig{MaxBatch: 32, MaxDelay: time.Hour}); err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 10; batch++ {
		epoch := d.Snapshot().Epoch()
		tickets := make([]*document.Ticket, 0, 32)
		for i := 0; i < 32; i++ {
			var tk *document.Ticket
			if w := next(); w.insert {
				tk, err = d.EnqueueInsert(context.Background(), w.parent, 1, bidder())
			} else {
				tk, err = d.EnqueueDelete(context.Background(), w.parent, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		for _, tk := range tickets {
			_, _ = tk.Wait(context.Background())
		}
		if got := d.Snapshot().Epoch(); got != epoch+1 {
			t.Fatalf("batch %d published %d epochs, want one", batch, got-epoch)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	enc := checkRoundTrip(t, d.Snapshot().Index())
	golden := filepath.Join("testdata", "postings_history_golden.bin")
	if *updateGolden {
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("postings after the history differ from golden (%d vs %d bytes)", len(enc), len(want))
	}
}

// TestLoadPostingsRejectsCorruption flips bits and truncates a valid
// snapshot; every mutation must load as an error — or, when the flip lands
// in delta bytes without breaking structure, still pass full validation —
// and never panic.
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
	if _, err := storage.DecodePostings(enc[:0]); err == nil {
		t.Error("empty snapshot accepted")
	}
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := storage.DecodePostings(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), enc...)
		mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
		lists, err := storage.DecodePostings(mut)
		if err != nil {
			continue
		}
		// Structurally valid despite the flip: document-order validation
		// against the real numbering is the second line of defense. Either
		// outcome is fine; both must be panic-free.
		_, _ = index.FromPostingLists(ix.RUID(), lists)
	}
}
