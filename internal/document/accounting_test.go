package document_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/document"
	"repro/internal/scheme"
	"repro/internal/uid"
	"repro/internal/xmltree"
)

// flakyBuildFail, when set, makes the "flaky-uid-test" scheme's constructor
// fail — forcing the next epoch publication to abort after the write
// already succeeded, which is exactly the window the counter-commit
// regression below guards.
var flakyBuildFail atomic.Bool

func init() {
	scheme.Register(scheme.Registration{
		Name: "flaky-uid-test",
		Caps: scheme.Capabilities{Axes: true, Update: true, ComputedParent: true},
		Build: func(doc *xmltree.Node) (scheme.Scheme, error) {
			if flakyBuildFail.Load() {
				return nil, errors.New("flaky-uid-test: forced constructor failure")
			}
			return uid.Build(doc, uid.Options{})
		},
	})
}

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
// epoch readers still see. Before the fix, Insert bumped
// nodeCount/depthSum before publishing, so a failed publication
// left the counters permanently drifted from every published epoch.
func TestFailedPublishKeepsCounters(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{Scheme: "flaky-uid-test"})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if before.Nodes != recount(d.Snapshot()) {
		t.Fatalf("baseline Stats.Nodes = %d, recount = %d", before.Nodes, recount(d.Snapshot()))
	}

	flakyBuildFail.Store(true)
	_, err = d.Insert("/library/shelf", 0, richSubtree())
	flakyBuildFail.Store(false)
	if err == nil {
		t.Fatal("Insert published through a failing scheme constructor")
	}

	after := d.Stats()
	if after != before {
		t.Fatalf("failed publication changed Stats: before %+v, after %+v", before, after)
	}
	if got := recount(d.Snapshot()); after.Nodes != got {
		t.Fatalf("Stats.Nodes = %d diverged from published epoch recount %d", after.Nodes, got)
	}
}

// TestGenericStatsMatchRecount pins the accounting reconciliation: under a
// generic scheme, Stats().Nodes answers from the incrementally maintained
// counter, and that counter must agree with an independent recount of the
// published tree across inserts and deletes of subtrees carrying
// attributes and text.
func TestGenericStatsMatchRecount(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{Scheme: "uid"})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		st := d.Stats()
		if got := recount(d.Snapshot()); st.Nodes != got {
			t.Fatalf("%s: Stats.Nodes = %d, independent recount = %d", stage, st.Nodes, got)
		}
	}
	check("open")
	for i := 0; i < 3; i++ {
		if _, err := d.Insert("/library/shelf", i, richSubtree()); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		check("insert")
	}
	if _, err := d.Delete("/library/shelf", 1); err != nil {
		t.Fatal(err)
	}
	check("delete")
}

// TestRUIDStatsMatchRecount holds the ruid scheme to the same canonical
// accounting rule as the generic schemes.
func TestRUIDStatsMatchRecount(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert("/library/shelf", 0, richSubtree()); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if got := recount(d.Snapshot()); st.Nodes != got {
		t.Fatalf("Stats.Nodes = %d, independent recount = %d", st.Nodes, got)
	}
}
