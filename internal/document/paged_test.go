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

// TestPagedLargeText: a paged document keeps its postings out of core and
// nothing else, so a text node larger than a page is no different from a
// small one. It opens paged, takes an insert of such a node, and reopens
// cold from its bundle, answering the same on every step.
func TestPagedLargeText(t *testing.T) {
	big := func(c string) string { return strings.Repeat(c, storage.PageSize+1) }
	src := "<site><doc><title>t</title><body>" + big("x") + "</body></doc></site>"
	d, err := document.OpenString(src, document.Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	body := xmltree.NewElement("body")
	body.AppendChild(xmltree.NewText(big("y")))
	if _, err := d.Insert("/site/doc", 2, body); err != nil {
		t.Fatal(err)
	}
	want := "<site><doc><title>t</title><body>" + big("x") + "</body><body>" + big("y") + "</body></doc></site>"
	var bundle bytes.Buffer
	if err := d.SaveBundle(&bundle); err != nil {
		t.Fatal(err)
	}
	cold, err := document.OpenBundle(&bundle, document.Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]*document.Document{"paged": d, "cold": cold} {
		snap := doc.Snapshot()
		if got := xmltree.Serialize(snap.Tree().DocumentElement()); got != want {
			t.Fatalf("%s: the document holds %d bytes, want %d", name, len(got), len(want))
		}
		got, _, err := snap.Query("/site/doc/body/text()")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Data != big("x") || got[1].Data != big("y") {
			t.Fatalf("%s: /site/doc/body/text() = %d nodes, want both large texts", name, len(got))
		}
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
