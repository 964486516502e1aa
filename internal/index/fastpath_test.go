package index_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/scheme"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func buildRUIDIndex(t *testing.T) (*xmltree.Node, *core.Numbering, *index.NameIndex) {
	t.Helper()
	doc := xmltree.Recursive(2, 7)
	n, err := core.Build(doc, core.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 16, AdjustFanout: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc, n, index.Build(doc.DocumentElement(), n)
}

// TestFastPathAgree pins every ruid join — the two pair joins and the
// executor's four semi-joins — over the block postings of a self-nesting
// document cut into 16-node areas, to the answer the pointer tree gives for
// section and title.
func TestFastPathAgree(t *testing.T) {
	doc, n, ix := buildRUIDIndex(t)
	root := doc.DocumentElement()
	ancs, descs := ix.Postings("section"), ix.Postings("title")
	if ancs.Len() == 0 || descs.Len() == 0 {
		t.Fatalf("test document has no section/title elements")
	}
	// related reports whether x has a relative named name: an ancestor
	// (a parent when !deep) when up, a descendant (a child) otherwise.
	related := func(x *xmltree.Node, name string, up, deep bool) bool {
		if up {
			for p := x.Parent; p != nil && p.Kind == xmltree.Element; p = p.Parent {
				if p.Name == name {
					return true
				}
				if !deep {
					return false
				}
			}
			return false
		}
		kids := xmltree.Descendants(x)
		if !deep {
			kids = x.AppendChildren(nil)
		}
		for _, c := range kids {
			if c.Name == name {
				return true
			}
		}
		return false
	}
	// truth lists, in document order, the elements named name that have a
	// relative named other.
	truth := func(name, other string, up, deep bool) []core.ID {
		var out []core.ID
		for _, x := range root.Elements() {
			if x.Name == name && related(x, other, up, deep) {
				id, _ := n.RUID(x)
				out = append(out, id)
			}
		}
		return out
	}
	pairs := canon(truthPairs(n, root, "section", "title"))
	ex := exec.Default()

	t.Run("UpwardJoin", func(t *testing.T) {
		if got := scheme.UpwardJoinPostings(n, ancs, descs); canon(got) != pairs {
			t.Fatalf("%d pairs, differs from the pointer tree", len(got))
		}
	})
	t.Run("MergeJoin", func(t *testing.T) {
		if got := scheme.MergeJoinPostings(n, ancs, descs); canon(got) != pairs {
			t.Fatalf("%d pairs, differs from the pointer tree", len(got))
		}
	})
	t.Run("UpwardSemiJoin", func(t *testing.T) {
		sameIDs(t, "section//title", ex.UpwardSemiJoin(n, ancs, descs), truth("title", "section", true, true))
	})
	t.Run("ParentSemiJoin", func(t *testing.T) {
		sameIDs(t, "section/title", ex.ParentSemiJoin(n, ancs, descs), truth("title", "section", true, false))
	})
	t.Run("AncestorSemiJoin", func(t *testing.T) {
		sameIDs(t, "section[.//title]", ex.AncestorSemiJoin(n, ancs, descs), truth("section", "title", false, true))
	})
	t.Run("ChildSemiJoin", func(t *testing.T) {
		sameIDs(t, "section[title]", ex.ChildSemiJoin(n, ancs, descs), truth("section", "title", false, false))
	})
	t.Run("PathQuery", func(t *testing.T) {
		nodes, err := xpath.NewEngine(doc, xpath.PointerNavigator{}).Query("//section//section//title")
		if err != nil {
			t.Fatal(err)
		}
		want := make([]core.ID, len(nodes))
		for i, x := range nodes {
			want[i], _ = n.RUID(x)
		}
		// The planner's pipeline: one upward semi-join per step, each
		// consuming the last one's survivors.
		nested := ex.UpwardSemiJoin(n, ix.Postings("section"), ix.Postings("section"))
		sameIDs(t, "//section//section//title", ex.UpwardSemiJoin(n, index.SlicePostings(nested), ix.Postings("title")), want)
	})
}

// TestIDsReturnsCopy pins the public-API contract: RuidIDs hands back a
// fresh slice, so a caller scribbling over it cannot corrupt the index
// postings.
func TestIDsReturnsCopy(t *testing.T) {
	_, _, ix := buildRUIDIndex(t)
	got := ix.RuidIDs("title")
	if len(got) == 0 {
		t.Fatal("no title postings")
	}
	want := got[0]
	got[0] = core.ID{Global: 999, Local: 999}
	again := ix.RuidIDs("title")
	if again[0] != want {
		t.Fatalf("mutating RuidIDs() result corrupted the index: %v", again[0])
	}
	if &got[0] == &again[0] {
		t.Fatal("RuidIDs returned the same backing array twice")
	}
}
