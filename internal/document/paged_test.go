package document_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// pagedLibraryXML is large enough that its postings span multiple pages
// under a small pool, while staying fully deterministic.
func pagedLibraryXML() string {
	var sb strings.Builder
	sb.WriteString("<lib>")
	for s := 0; s < 12; s++ {
		fmt.Fprintf(&sb, `<shelf floor="%d">`, s%3)
		for b := 0; b < 40; b++ {
			fmt.Fprintf(&sb, "<book><title>t%d.%d</title><author>a%d</author></book>", s, b, b%7)
		}
		sb.WriteString("</shelf>")
	}
	sb.WriteString("</lib>")
	return sb.String()
}

var pagedQueries = []string{
	"/lib/shelf/book/title",
	"//book//author",
	"//book[author]/title",
	"//shelf[@floor='2']/book/title",
	"//title/text()",
	"//shelf//book",
}

// queryPaths runs q and returns the sorted result paths.
func queryPaths(t *testing.T, d *document.Document, q string) []string {
	t.Helper()
	snap := d.Snapshot()
	got, _, err := snap.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return sortedPaths(snap, got)
}

// TestPagedEngineMatchesResident is the oracle test of the out-of-core
// acceptance bar: the same document opened resident and opened with a tiny
// buffer pool must answer every query identically — before and after a
// series of identical structural updates (which exercise incremental
// payload maintenance, the block splice over paged input lists and full
// re-page-out publications) — and must hold identical postings throughout.
func TestPagedEngineMatchesResident(t *testing.T) {
	src := pagedLibraryXML()
	opts := document.Options{Partition: core.PartitionConfig{MaxAreaNodes: 32, AdjustFanout: true}}
	resident, err := document.OpenString(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	popts := opts
	popts.PoolPages = 8
	paged, err := document.OpenString(src, popts)
	if err != nil {
		t.Fatal(err)
	}
	if paged.Store() == nil || resident.Store() != nil {
		t.Fatalf("Store(): paged=%v resident=%v", paged.Store(), resident.Store())
	}

	check := func(stage string) {
		t.Helper()
		for _, q := range pagedQueries {
			want := queryPaths(t, resident, q)
			got := queryPaths(t, paged, q)
			if strings.Join(got, "|") != strings.Join(want, "|") {
				t.Fatalf("%s: Query(%q): paged %v, resident %v", stage, q, got, want)
			}
		}
		// Below the queries: a write splices the paged engine's lists from
		// paged input (block bytes faulted through the pool), the resident
		// engine's from resident input, and both must hold the same postings.
		rix, pix := resident.Snapshot().Index(), paged.Snapshot().Index()
		if err := pix.CheckSorted(); err != nil {
			t.Fatalf("%s: paged index: %v", stage, err)
		}
		if got, want := strings.Join(pix.Names(), " "), strings.Join(rix.Names(), " "); got != want {
			t.Fatalf("%s: paged index names %q, resident %q", stage, got, want)
		}
		for _, name := range rix.Names() {
			got, want := pix.RuidIDs(name), rix.RuidIDs(name)
			if len(got) != len(want) {
				t.Fatalf("%s: %q: paged index holds %d postings, resident %d", stage, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: %q posting %d: paged %v, resident %v", stage, name, i, got[i], want[i])
				}
			}
		}
	}
	check("initial")

	// Cold re-run: even with every page dropped the answers are identical
	// and the faults are visible in the I/O ledger.
	paged.DropCaches()
	paged.ResetIOStats()
	check("cold")
	if st := paged.IOStats(); st.Reads == 0 {
		t.Fatalf("cold queries over a paged document issued no reads: %v", st)
	}

	// Identical update histories must keep the engines in lockstep.
	for step := 0; step < 12; step++ {
		shelf := fmt.Sprintf("/lib/shelf[%d]", step%12+1)
		if step%3 == 2 {
			if _, err := resident.Delete(shelf, 0); err != nil {
				t.Fatalf("step %d: resident delete: %v", step, err)
			}
			if _, err := paged.Delete(shelf, 0); err != nil {
				t.Fatalf("step %d: paged delete: %v", step, err)
			}
		} else {
			mk := func() *xmltree.Node {
				book := xmltree.NewElement("book")
				title := xmltree.NewElement("title")
				title.AppendChild(xmltree.NewText(fmt.Sprintf("new%d", step)))
				book.AppendChild(title)
				return book
			}
			if _, err := resident.Insert(shelf, step%5, mk()); err != nil {
				t.Fatalf("step %d: resident insert: %v", step, err)
			}
			if _, err := paged.Insert(shelf, step%5, mk()); err != nil {
				t.Fatalf("step %d: paged insert: %v", step, err)
			}
		}
		check(fmt.Sprintf("after step %d", step))
	}
}

// TestPayloadFailureSurfaces: on a paged document the payload table follows
// every installed epoch. When it cannot — a failed Nodes.Put or Delete — the
// write must say so; it used to return nil and leave the store silently
// behind the epoch readers see.
func TestPayloadFailureSurfaces(t *testing.T) {
	d, err := document.OpenString(pagedLibraryXML(), document.Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	// A node table whose root is an interior page pointing at a child that
	// was never allocated: every Put and Delete fails descending into it.
	pager := storage.NewPager(4)
	broken := storage.NewNodeStoreOn(pager)
	if err := pager.Write(0, []byte{0, 0, 0, 0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	d.Store().Nodes = broken

	epoch := d.Snapshot().Epoch()
	_, err = d.Insert("/lib/shelf", 0, xmltree.NewElement("probe"))
	if !errors.Is(err, document.ErrStorage) || !errors.Is(err, storage.ErrPageBounds) {
		t.Fatalf("Insert over a failing payload table: err = %v, want ErrStorage wrapping ErrPageBounds", err)
	}
	// The failure is after the install: the epoch is visible, and the error
	// is how the caller learns the store no longer matches it.
	if got := d.Snapshot().Epoch(); got != epoch+1 {
		t.Fatalf("epoch %d after the failed payload update, want %d", got, epoch+1)
	}
	if got := queryPaths(t, d, "//probe"); len(got) != 1 {
		t.Fatalf("//probe = %v, want the installed insert", got)
	}
}

// TestColdBundleRoundTrip: SaveBundle → OpenBundle serves byte-identical
// answers without materializing postings, refuses writes, re-saves the
// identical bundle, and reports honest cold/warm I/O.
func TestColdBundleRoundTrip(t *testing.T) {
	src := pagedLibraryXML()
	opts := document.Options{Partition: core.PartitionConfig{MaxAreaNodes: 32, AdjustFanout: true}}
	orig, err := document.OpenString(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	var bundle bytes.Buffer
	if err := orig.SaveBundle(&bundle); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), bundle.Bytes()...)

	cold, err := document.OpenBundle(bytes.NewReader(saved), document.Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.IOStats(); st.Reads != 0 || st.CacheHits != 0 {
		t.Fatalf("cold open left I/O on the ledger: %v", st)
	}
	for _, q := range pagedQueries {
		want := queryPaths(t, orig, q)
		got := queryPaths(t, cold, q)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("Query(%q): cold %v, orig %v", q, got, want)
		}
	}
	coldStats := cold.IOStats()
	if coldStats.Reads == 0 {
		t.Fatalf("cold queries issued no reads: %v", coldStats)
	}

	// Warm re-run over an ample pool pays hits, not reads.
	warm, err := document.OpenBundle(bytes.NewReader(saved), document.Options{PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range pagedQueries {
		queryPaths(t, warm, q)
	}
	warm.ResetIOStats()
	for _, q := range pagedQueries {
		queryPaths(t, warm, q)
	}
	if st := warm.IOStats(); st.Reads != 0 || st.CacheHits == 0 {
		t.Fatalf("warm re-run should be all hits: %v", st)
	}

	// Cold documents are read-only.
	book := xmltree.NewElement("book")
	if _, err := cold.Insert("/lib/shelf[1]", 0, book); !errors.Is(err, document.ErrColdDocument) {
		t.Fatalf("Insert on cold doc: %v", err)
	}
	if _, err := cold.Delete("/lib/shelf[1]", 0); !errors.Is(err, document.ErrColdDocument) {
		t.Fatalf("Delete on cold doc: %v", err)
	}

	// Re-saving the cold document reproduces the bundle byte-for-byte: the
	// paged postings fault back exactly the bytes that were stored.
	var again bytes.Buffer
	if err := cold.SaveBundle(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, again.Bytes()) {
		t.Fatalf("re-saved bundle differs: %d vs %d bytes", len(saved), again.Len())
	}

	// Corrupt bundles are rejected, never panic.
	for cut := 0; cut < len(saved); cut += len(saved)/40 + 1 {
		if _, err := document.OpenBundle(bytes.NewReader(saved[:cut]), document.Options{}); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	mut := append([]byte(nil), saved...)
	mut[3] ^= 0xFF
	if _, err := document.OpenBundle(bytes.NewReader(mut), document.Options{}); err == nil {
		t.Fatalf("bad magic accepted")
	}
}

// TestColdBundleConcurrentNavigation: a cold-opened document serves readers
// straight from the numbering core.Load returns, so Load must hand it over
// ready to share — every slot list sorted, nothing left to initialise on
// first use. Eight goroutines navigate the same areas at once; under -race
// a lazily sorted slot list is reported here.
func TestColdBundleConcurrentNavigation(t *testing.T) {
	orig, err := document.FromTree(xmltree.XMark(3, 1), document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var bundle bytes.Buffer
	if err := orig.SaveBundle(&bundle); err != nil {
		t.Fatal(err)
	}
	cold, err := document.OpenBundle(&bundle, document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const q = "/site/people/person[2]/following-sibling::person[1]"
	want := queryPaths(t, orig, q)
	if len(want) != 1 {
		t.Fatalf("fixture: %q matched %v", q, want)
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			snap := cold.Snapshot()
			got, _, err := snap.Query(q)
			if paths := sortedPaths(snap, got); err == nil && strings.Join(paths, "|") != strings.Join(want, "|") {
				err = fmt.Errorf("got %v, want %v", paths, want)
			}
			errs <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestPagedWritesKeepUntouchedBlocksPaged: a write to an out-of-core
// document re-points the posting blocks it changes and leaves every other
// block where it was, in the pager. Fifty insert/delete pairs under random
// open_auctions of one neighbourhood (their bidders span a block or two of
// eleven) must leave all but a few of bidder's blocks paged, and no write may
// grow the index's resident delta bytes by more than the bytes of the blocks
// it wrote. (Before blocks were shared, a write faulted each touched list
// in whole and left it resident.)
func TestPagedWritesKeepUntouchedBlocksPaged(t *testing.T) {
	d, err := document.FromTree(xmltree.XMark(100, 1), document.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	bidders := func() *index.PostingList { return d.Snapshot().Index().Postings("bidder").List() }
	// blocks maps each block of a list, by its skip entry (less its
	// offsets) and bytes, to its byte length.
	type key struct {
		skip  index.Skip
		bytes string
	}
	blocks := func(pl *index.PostingList) map[key]int {
		data, err := pl.DataBytes()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[key]int)
		for _, sk := range pl.Skips() {
			b := string(data[sk.Off:sk.End])
			sk.Off, sk.End = 0, 0
			out[key{sk, b}] = len(b)
		}
		return out
	}
	resident := func(pl *index.PostingList) int {
		return pl.SizeBytes() - pl.NumBlocks()*int(unsafe.Sizeof(index.Skip{}))
	}
	if n, r := bidders().NumBlocks(), resident(bidders()); n < 10 || r != 0 {
		t.Fatalf("fixture: bidder has %d blocks, %d resident bytes", n, r)
	}
	r := rand.New(rand.NewSource(25))
	first := 1 + r.Intn(580)
	for pair := 0; pair < 50; pair++ {
		parent := fmt.Sprintf("/site/open_auctions/open_auction[%d]", first+r.Intn(16))
		for _, insert := range []bool{true, false} {
			prev := d.Snapshot().Index()
			if insert {
				_, err = d.Insert(parent, 1, pagedBidder())
			} else {
				_, err = d.Delete(parent, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			cur := d.Snapshot().Index()
			grew, wrote := 0, 0
			for _, name := range cur.Names() {
				old, pl := prev.Postings(name).List(), cur.Postings(name).List()
				if old == pl {
					continue
				}
				had := blocks(old)
				for k, n := range blocks(pl) {
					if _, ok := had[k]; !ok {
						wrote += n
					}
				}
				grew += resident(pl) - resident(old)
			}
			if grew > wrote {
				t.Fatalf("pair %d: a write grew the resident delta bytes by %d, it wrote %d", pair, grew, wrote)
			}
		}
	}
	// At most six blocks resident: no more resident bytes than the six
	// largest blocks hold.
	pl := bidders()
	sizes := make([]int, 0, pl.NumBlocks())
	for _, sk := range pl.Skips() {
		sizes = append(sizes, int(sk.End-sk.Off))
	}
	slices.Sort(sizes)
	six := 0
	for _, n := range sizes[len(sizes)-6:] {
		six += n
	}
	t.Logf("after 50 pairs bidder holds %d resident delta bytes; its six largest blocks hold %d", resident(pl), six)
	if resident(pl) > six {
		t.Fatalf("after 50 pairs bidder holds %d resident delta bytes, more than its six largest blocks (%d)", resident(pl), six)
	}
}

// pagedBidder is the fragment the end-to-end benchmark's writes insert.
func pagedBidder() *xmltree.Node {
	b := xmltree.NewElement("bidder")
	inc := xmltree.NewElement("increase")
	inc.AppendChild(xmltree.NewText("1.50"))
	b.AppendChild(inc)
	return b
}
