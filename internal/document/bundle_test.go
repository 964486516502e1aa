package document_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/xmltree"
)

// bundleLibraryXML is large enough that its postings span many blocks,
// while staying fully deterministic.
func bundleLibraryXML() string {
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

var bundleQueries = []string{
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

// TestBundleLargeText: a document with large text nodes takes an insert of
// another and reopens cold from its bundle, the reopened document holding
// and answering the same text.
func TestBundleLargeText(t *testing.T) {
	big := func(c string) string { return strings.Repeat(c, 5000) }
	src := "<site><doc><title>t</title><body>" + big("x") + "</body></doc></site>"
	d, err := document.OpenString(src, document.Options{})
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
	cold, err := document.OpenBundle(&bundle, document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]*document.Document{"open": d, "cold": cold} {
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
// answers, refuses writes and re-saves the identical bundle.
func TestColdBundleRoundTrip(t *testing.T) {
	src := bundleLibraryXML()
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

	cold, err := document.OpenBundle(bytes.NewReader(saved), document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range bundleQueries {
		want := queryPaths(t, orig, q)
		got := queryPaths(t, cold, q)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("Query(%q): cold %v, orig %v", q, got, want)
		}
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
	// loaded postings hold exactly the bytes that were stored.
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
