package document_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/document"
	"repro/internal/xmltree"
)

// TestWritesRetainNothing: once a write's epoch is superseded and unpinned,
// nothing of it stays reachable. Insert/delete pairs under random
// open_auctions of XMark 500 must leave the live heap where it was after the
// first few: a published node that pointed up would pin the spine it was
// copied under, and a table-K chunk cut from a wider array would pin every
// row a fork replaced, each growing the heap by kilobytes per write.
func TestWritesRetainNothing(t *testing.T) {
	scale, early, late := 500, 16, 1024
	if raceEnabled {
		scale, late = 200, 256
	}
	d, err := document.FromTree(xmltree.XMark(scale, 1), document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := d.Snapshot().QueryMetered("/site/open_auctions/open_auction", nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	auctions := res.Len()
	rng := rand.New(rand.NewSource(1))
	round := func() {
		t.Helper()
		parent := fmt.Sprintf("/site/open_auctions/open_auction[%d]", 1+rng.Intn(auctions))
		bidder, err := xmltree.ParseFragment("<bidder><increase>1.50</increase></bidder>")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Insert(parent, 1, bidder); err != nil {
			t.Fatalf("insert under %s: %v", parent, err)
		}
		if _, err := d.Delete(parent, 1); err != nil {
			t.Fatalf("delete under %s: %v", parent, err)
		}
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < early; i++ {
		round()
	}
	before := live()
	for i := early; i < late; i++ {
		round()
	}
	after := live()
	growth := (float64(after) - float64(before)) / float64(before)
	t.Logf("live heap after %d pairs %.2f MB, after %d %.2f MB (%+.2f%%)", early, float64(before)/1e6, late, float64(after)/1e6, 100*growth)
	if growth > 0.01 || growth < -0.01 {
		t.Fatalf("live heap moved %+.2f%% between %d and %d insert/delete pairs, want within 1%%", 100*growth, early, late)
	}
	runtime.KeepAlive(d)
}
