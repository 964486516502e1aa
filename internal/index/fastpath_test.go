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

// siblingRuns is a document of long sibling runs, shaped for the kernels'
// repeated-parent rule: 150 t siblings under a g that is no member but has a
// member ancestor s, members s nested inside members, sibling runs whose
// parent is a member, a run with no member above it, a member with no t
// below it, and a document element named t, so that the t list starts at the
// document root.
func siblingRuns() *xmltree.Node {
	el := func(name string, kids ...*xmltree.Node) *xmltree.Node {
		x := xmltree.NewElement(name)
		for _, k := range kids {
			x.AppendChild(k)
		}
		return x
	}
	ts := func(n int) []*xmltree.Node {
		out := make([]*xmltree.Node, n)
		for i := range out {
			out[i] = el("t")
		}
		return out
	}
	inner := el("s", append(ts(20), el("g", el("g", ts(10)...)), el("s", ts(3)...))...)
	outer := el("s", append([]*xmltree.Node{el("g", ts(150)...), inner}, ts(5)...)...)
	doc := xmltree.NewDocument()
	doc.AppendChild(el("t", append([]*xmltree.Node{outer, el("g", ts(60)...), el("s")}, ts(2)...)...))
	return doc
}

// TestFastPathAgree pins every ruid join — the two pair joins and the
// executor's four semi-joins — over the block postings of a document cut
// into 16-node areas, to the answer the pointer tree gives: section and title
// of a self-nesting document, and the sibling runs of siblingRuns, where the
// kernels answer most candidates from the previous candidate's parent.
func TestFastPathAgree(t *testing.T) {
	doc, n, ix := buildRUIDIndex(t)
	fastPathAgree(t, doc, n, ix, "section", "title")
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
		ex := exec.Default()
		nested := ex.UpwardSemiJoin(n, ix.Postings("section"), ix.Postings("section"))
		sameIDs(t, "//section//section//title", ex.UpwardSemiJoin(n, index.SlicePostings(nested), ix.Postings("title")), want)
	})

	doc = siblingRuns()
	n, err := core.Build(doc, core.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 16, AdjustFanout: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix = index.Build(doc.DocumentElement(), n)
	for _, anc := range []string{"s", "g", "t"} {
		t.Run("SiblingRuns/"+anc, func(t *testing.T) { fastPathAgree(t, doc, n, ix, anc, "t") })
	}
}

// fastPathAgree checks the six ruid joins of anc and desc on doc against the
// pointer tree.
func fastPathAgree(t *testing.T, doc *xmltree.Node, n *core.Numbering, ix *index.NameIndex, anc, desc string) {
	t.Helper()
	root := doc.DocumentElement()
	ancs, descs := ix.Postings(anc), ix.Postings(desc)
	if ancs.Len() == 0 || descs.Len() == 0 {
		t.Fatalf("test document has no %s/%s elements", anc, desc)
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
	pairs := canon(truthPairs(n, root, anc, desc))
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
		sameIDs(t, anc+"//"+desc, ex.UpwardSemiJoin(n, ancs, descs), truth(desc, anc, true, true))
	})
	t.Run("ParentSemiJoin", func(t *testing.T) {
		sameIDs(t, anc+"/"+desc, ex.ParentSemiJoin(n, ancs, descs), truth(desc, anc, true, false))
	})
	t.Run("AncestorSemiJoin", func(t *testing.T) {
		sameIDs(t, anc+"[.//"+desc+"]", ex.AncestorSemiJoin(n, ancs, descs), truth(anc, desc, false, true))
	})
	t.Run("ChildSemiJoin", func(t *testing.T) {
		sameIDs(t, anc+"["+desc+"]", ex.ChildSemiJoin(n, ancs, descs), truth(anc, desc, false, false))
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
