package document_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/obs"
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

// TestHealedPublishKeepsCounters: a write that heals a local-index overflow
// publishes in full, and the document's statistics must describe the epoch
// it installs while a pinned epoch keeps its own.
func TestHealedPublishKeepsCounters(t *testing.T) {
	d, err := document.OpenString("<a><b><c/></b></a>", document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 1, MaxLocalBits: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	before, pinned := d.Stats(), d.Snapshot()
	if before.Nodes != recount(pinned) {
		t.Fatalf("baseline Stats.Nodes = %d, recount = %d", before.Nodes, recount(pinned))
	}

	// Under the leaf c the insert overflows c's 1-bit local index and heals.
	x := xmltree.NewElement("x")
	x.AppendChild(xmltree.NewText("t"))
	st, err := d.Insert("/a/b/c", 0, x)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullRebuild {
		t.Fatal("fixture regressed: the insert did not heal an overflow")
	}
	if got := d.Stats(); got.Nodes != before.Nodes+2 || got.Nodes != recount(d.Snapshot()) {
		t.Fatalf("after the healed insert: Stats.Nodes = %d, want %d = recount %d", got.Nodes, before.Nodes+2, recount(d.Snapshot()))
	}
	if got := recount(pinned); got != before.Nodes {
		t.Fatalf("the pinned epoch recounts %d nodes, want %d", got, before.Nodes)
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
