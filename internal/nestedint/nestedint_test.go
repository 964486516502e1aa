package nestedint_test

import (
	"errors"
	"testing"

	"repro/internal/nestedint"
	"repro/internal/scheme"
	"repro/internal/scheme/schemetest"
	"repro/internal/xmltree"
)

func build(t *testing.T, doc *xmltree.Node) *nestedint.Numbering {
	t.Helper()
	n, err := nestedint.Build(doc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// TestConformance runs the shared conformance suite (identity, parent,
// ancestry, order, all seven axes) over the standard corpus.
func TestConformance(t *testing.T) {
	schemetest.Run(t, func(t *testing.T, doc *xmltree.Node) scheme.Scheme {
		return build(t, doc)
	})
}

// TestUpdateSoak replays randomized insert/delete workloads, validating the
// whole numbering after every operation.
func TestUpdateSoak(t *testing.T) {
	soak := func(t *testing.T, doc *xmltree.Node) scheme.Updatable {
		return build(t, doc)
	}
	schemetest.RunUpdateSoak(t, soak, 120, 1)
	schemetest.RunUpdateSoak(t, soak, 120, 42)
}

// TestGeneratorFamilies pins conformance on the three bake-off generator
// families the adaptive picker distinguishes.
func TestGeneratorFamilies(t *testing.T) {
	docs := map[string]*xmltree.Node{
		"skewed":    xmltree.Skewed(9, 2, 8),
		"recursive": xmltree.Recursive(2, 6),
		"xmark":     xmltree.XMark(1, 7),
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			n := build(t, doc)
			validateAgainstPointers(t, n, doc)
		})
	}
}

func validateAgainstPointers(t *testing.T, n *nestedint.Numbering, doc *xmltree.Node) {
	t.Helper()
	root := doc.DocumentElement()
	nodes := root.Nodes()
	if n.Size() != len(nodes) {
		t.Fatalf("numbered %d nodes, tree has %d", n.Size(), len(nodes))
	}
	for _, d := range nodes {
		id, ok := n.IDOf(d)
		if !ok {
			t.Fatalf("node %s not numbered", d.Path())
		}
		back, ok := n.NodeOf(id)
		if !ok || back != d {
			t.Fatalf("NodeOf(IDOf(%s)) mismatch", d.Path())
		}
		if pid, ok := n.Parent(id); ok {
			p, ok2 := n.NodeOf(pid)
			if !ok2 || p != d.Parent {
				t.Fatalf("Parent of %s wrong", d.Path())
			}
		} else if d != root {
			t.Fatalf("non-root %s has no parent", d.Path())
		}
	}
}

// TestParentIsArithmetic checks the UID-family property: Parent is computed
// from the rational alone, through the continued-fraction codec, and agrees
// with the tree.
func TestParentIsArithmetic(t *testing.T) {
	doc := xmltree.Recursive(3, 4)
	n := build(t, doc)
	root := doc.DocumentElement()
	for _, d := range root.Nodes() {
		if d == root {
			continue
		}
		id, _ := n.IDOf(d)
		nid := id.(nestedint.ID)
		// Reconstruct the parent label purely from num/den.
		path, err := nestedint.DecodePath(nid.Num, nid.Den)
		if err != nil {
			t.Fatalf("DecodePath(%s): %v", nid, err)
		}
		pnum, pden, err := nestedint.EncodePath(path[:len(path)-1])
		if err != nil {
			t.Fatalf("EncodePath parent of %s: %v", nid, err)
		}
		pid, ok := n.Parent(id)
		if !ok {
			t.Fatalf("Parent(%s) = none", nid)
		}
		got := pid.(nestedint.ID)
		if got.Num != pnum || got.Den != pden {
			t.Fatalf("Parent(%s) = %s, want %d/%d", nid, got, pnum, pden)
		}
	}
}

// TestInsertRelabelScope pins the documented update cost: inserting as the
// first child relabels exactly the following siblings' subtrees.
func TestInsertRelabelScope(t *testing.T) {
	doc := xmltree.Balanced(3, 2) // root with 3 children, each with 3 leaves
	n := build(t, doc)
	root := doc.DocumentElement()
	st, err := n.InsertChild(root, 0, xmltree.NewElement("new"))
	if err != nil {
		t.Fatalf("InsertChild: %v", err)
	}
	// All 3 original subtrees (4 nodes each) shift rank; root keeps "1".
	if st.Relabeled != 12 {
		t.Fatalf("Relabeled = %d, want 12", st.Relabeled)
	}
	if st.FullRebuild || st.AreaRebuilds != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
	// Appending as the last child relabels nothing.
	st, err = n.InsertChild(root, root.NumChildren(), xmltree.NewElement("tail"))
	if err != nil {
		t.Fatalf("InsertChild: %v", err)
	}
	if st.Relabeled != 0 {
		t.Fatalf("append Relabeled = %d, want 0", st.Relabeled)
	}
}

// TestOverflowRollback drives a document past the int64 label budget and
// checks the relabel-on-overflow policy: the failing update reports
// ErrOverflow and leaves both tree and numbering exactly as they were.
func TestOverflowRollback(t *testing.T) {
	// A chain of first children makes labels grow like Fibonacci numbers;
	// int64 holds about 90 of those.
	doc := xmltree.Linear(80)
	n := build(t, doc)
	// Walk to the deepest node.
	deepest := doc.DocumentElement()
	for deepest.NumChildren() > 0 {
		deepest = deepest.Child(0)
	}
	var overflowed bool
	for i := 0; i < 40; i++ {
		before := n.Size()
		child := xmltree.NewElement("d")
		_, err := n.InsertChild(deepest, 0, child)
		if err != nil {
			if !isOverflow(err) {
				t.Fatalf("unexpected error: %v", err)
			}
			// Rolled back: tree unchanged, numbering still valid.
			if deepest.NumChildren() != 0 {
				t.Fatalf("tree not rolled back: %d children", deepest.NumChildren())
			}
			if n.Size() != before {
				t.Fatalf("numbering changed on failed insert: %d -> %d", before, n.Size())
			}
			overflowed = true
			break
		}
		deepest = child
	}
	if !overflowed {
		t.Fatal("expected ErrOverflow before 40 extra levels")
	}
}

func isOverflow(err error) bool {
	return errors.Is(err, nestedint.ErrOverflow)
}
