package document_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// richSubtree builds an insert payload that exercises every accounting
// class: elements, text and attributes (attributes must stay outside the
// node count; text inside it).
func richSubtree() *xmltree.Node {
	book := xmltree.NewElement("book")
	book.SetAttr("isbn", "42")
	title := xmltree.NewElement("title")
	title.SetAttr("lang", "en")
	title.AppendChild(xmltree.NewText("Numbering Schemes"))
	book.AppendChild(title)
	note := xmltree.NewElement("note")
	note.AppendChild(xmltree.NewText("structural"))
	book.AppendChild(note)
	return book
}

// recount independently derives the canonical node count — non-attribute
// nodes from the root element down — from a snapshot's tree.
func recount(s *document.Snapshot) int {
	root := s.Tree()
	if root.Kind == xmltree.Document {
		root = root.DocumentElement()
	}
	n := 0
	if root != nil {
		root.Walk(func(*xmltree.Node) bool { n++; return true })
	}
	return n
}

// TestFailedPublishKeepsCounters: when publication fails after a
// structural write, the document's statistics must keep describing the
// epoch readers still see. Before the fix, Insert bumped the document's
// counters before publishing, so a failed publication
// left the counters permanently drifted from every published epoch. The
// failure here is the one that happens before the install: a write that
// heals a local-index overflow publishes in full, which on a paged document
// pages the epoch out into a fresh store, and a text row larger than a
// B+tree value refuses the page-out.
func TestFailedPublishKeepsCounters(t *testing.T) {
	d, err := document.OpenString("<a><b><c/></b></a>", document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 1, MaxLocalBits: 1},
		PoolPages: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(text string) *xmltree.Node {
		x := xmltree.NewElement("x")
		x.AppendChild(xmltree.NewText(text))
		return x
	}
	before, pinned := d.Stats(), d.Snapshot()
	if before.Nodes != recount(pinned) {
		t.Fatalf("baseline Stats.Nodes = %d, recount = %d", before.Nodes, recount(pinned))
	}

	// Under the leaf c the insert overflows c's 1-bit local index and heals.
	if _, err := d.Insert("/a/b/c", 0, payload(strings.Repeat("t", storage.PageSize))); err == nil {
		t.Fatal("Insert published a text row no B+tree page holds")
	}
	after := d.Stats()
	if after != before || d.Snapshot() != pinned {
		t.Fatalf("failed publication changed Stats: before %+v, after %+v", before, after)
	}
	if got := recount(d.Snapshot()); after.Nodes != got {
		t.Fatalf("Stats.Nodes = %d diverged from published epoch recount %d", after.Nodes, got)
	}

	// The same write with a row that fits takes the same full publication.
	st, err := d.Insert("/a/b/c", 0, payload("t"))
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullRebuild {
		t.Fatal("fixture regressed: the insert did not heal an overflow")
	}
	if got := d.Stats(); got.Nodes != before.Nodes+2 || got.Nodes != recount(d.Snapshot()) {
		t.Fatalf("after the healed insert: Stats.Nodes = %d, want %d = recount %d", got.Nodes, before.Nodes+2, recount(d.Snapshot()))
	}
}

// TestRUIDStatsMatchRecount pins the accounting reconciliation:
// Stats().Nodes answers from the incrementally maintained counter, and that
// counter must agree with an independent recount of the published tree
// across inserts and deletes of subtrees carrying attributes and text, with
// attributes numbered or not.
func TestRUIDStatsMatchRecount(t *testing.T) {
	for _, withAttrs := range []bool{false, true} {
		d, err := document.OpenString(librarySrc, document.Options{WithAttrs: withAttrs})
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			t.Helper()
			if st, got := d.Stats(), recount(d.Snapshot()); st.Nodes != got {
				t.Fatalf("WithAttrs=%v, %s: Stats.Nodes = %d, independent recount = %d", withAttrs, stage, st.Nodes, got)
			}
		}
		check("open")
		for i := 0; i < 3; i++ {
			if _, err := d.Insert("/library/shelf", i, richSubtree()); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
			check(fmt.Sprintf("insert %d", i))
		}
		if _, err := d.Delete("/library/shelf", 1); err != nil {
			t.Fatal(err)
		}
		check("delete")
	}
}

// TestNodeGaugeMatchesStats: /metrics and GET /v1/docs report one node count
// for one document. The doc.nodes gauge used to be the numbering's size,
// which counts attributes on a WithAttrs document.
func TestNodeGaugeMatchesStats(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := document.OpenString(librarySrc, document.Options{WithAttrs: true, Observe: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert("/library/shelf", 0, richSubtree()); err != nil {
		t.Fatal(err)
	}
	gauge, st, got := reg.Gauge("doc.nodes").Value(), d.Stats(), recount(d.Snapshot())
	if gauge != int64(st.Nodes) || st.Nodes != got {
		t.Fatalf("doc.nodes = %d, Stats().Nodes = %d, recount = %d", gauge, st.Nodes, got)
	}
	if names := reg.Gauge("doc.names").Value(); names != int64(st.Names) || st.Names != len(d.Snapshot().Index().Names()) {
		t.Fatalf("doc.names = %d, Stats().Names = %d, index names %d", names, st.Names, len(d.Snapshot().Index().Names()))
	}
}
