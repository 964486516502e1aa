package document

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/xmltree"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestPostingsHistoryGolden pins where the block splice puts block
// boundaries: the postings of XMark 20 after a fixed seeded history — 500
// writes published one by one, then ten batches of 32 published as one
// epoch each — must serialize to the committed bytes, and load back through
// the cold-open decoder to the same bytes. Boundaries are a function of the
// update history alone, so a change to how a splice stores or shares blocks
// must reproduce them exactly.
func TestPostingsHistoryGolden(t *testing.T) {
	d, err := OpenString(xmltree.Serialize(xmltree.XMark(20, 1)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	auctions := len(d.Snapshot().Tree().DocumentElement().FirstChildElement("open_auctions").ChildElements("open_auction"))
	r := rand.New(rand.NewSource(25))
	// next returns one seeded mutation of a random open_auction: an insert
	// of a bidder right after <initial>, or the delete of that position.
	const bidder = "<bidder><increase>1.50</increase></bidder>"
	next := func() batchMutation {
		m := batchMutation{insert: r.Intn(5) < 3, parent: fmt.Sprintf("/site/open_auctions/open_auction[%d]", 1+r.Intn(auctions)), pos: 1}
		if m.insert {
			m.xml = bidder
		}
		return m
	}
	for i := 0; i < 500; i++ {
		// A refused write (no child at position 1) is part of the history too.
		applyBatch(t, d, []batchMutation{next()})
	}
	for batch := 0; batch < 10; batch++ {
		epoch := d.Snapshot().Epoch()
		muts := make([]batchMutation, 32)
		for i := range muts {
			muts[i] = next()
		}
		applyBatch(t, d, muts)
		if got := d.Snapshot().Epoch(); got != epoch+1 {
			t.Fatalf("batch %d published %d epochs, want one", batch, got-epoch)
		}
	}
	enc, err := storage.EncodePostings(d.Snapshot().Index())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := storage.LoadPostings(bytes.NewReader(enc), d.Snapshot().Numbering())
	if err != nil {
		t.Fatal(err)
	}
	if reenc, err := storage.EncodePostings(loaded); err != nil || !bytes.Equal(reenc, enc) {
		t.Fatalf("re-encoding the loaded postings changed the bytes (err %v)", err)
	}
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
