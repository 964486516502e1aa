package uid_test

import (
	"math/big"
	"testing"

	"repro/internal/scheme"
	"repro/internal/scheme/schemetest"
	"repro/internal/uid"
	"repro/internal/xmltree"
)

func TestConformance(t *testing.T) {
	schemetest.Run(t, func(t *testing.T, doc *xmltree.Node) scheme.Scheme {
		n, err := uid.Build(doc, uid.Options{})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return n
	})
}

// TestFigure1Enumeration pins the original-UID values of the Fig. 1(a)
// tree: with k = 3 the real nodes carry 1, 2, 3, 8, 9, 23, 26, 27.
func TestFigure1Enumeration(t *testing.T) {
	doc, labels := xmltree.PaperFigure1()
	// The figure enumerates with k = 3 (the drawn tree's real fan-out is 2;
	// the dotted virtual nodes make up the difference).
	n, err := uid.Build(doc, uid.Options{K: 3})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if n.K() != 3 {
		t.Fatalf("k = %d, want 3", n.K())
	}
	for want, node := range labels {
		got, ok := n.IDValue(node)
		if !ok {
			t.Fatalf("node for UID %d not numbered", want)
		}
		if got.Int64() != want {
			t.Errorf("node %s: uid = %v, want %d", node.Name, got, want)
		}
	}
}

// TestFigure1Insertion reproduces Fig. 1(b): inserting a node between
// nodes 2 and 3 renumbers 3, 8, 9, 23, 26, 27 to 4, 11, 12, 32, 35, 36.
func TestFigure1Insertion(t *testing.T) {
	doc, labels := xmltree.PaperFigure1()
	n, err := uid.Build(doc, uid.Options{K: 3})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	root := labels[1]
	st, err := n.InsertChild(root, 1, xmltree.NewElement("new"))
	if err != nil {
		t.Fatalf("InsertChild: %v", err)
	}
	if st.FullRebuild {
		t.Fatalf("insertion with space available must not rebuild")
	}
	// Exactly the six published nodes change identifier.
	if st.Relabeled != 6 {
		t.Errorf("relabeled = %d, want 6", st.Relabeled)
	}
	want := map[int64]int64{1: 1, 2: 2, 3: 4, 8: 11, 9: 12, 23: 32, 26: 35, 27: 36}
	for was, now := range want {
		got, ok := n.IDValue(labels[was])
		if !ok {
			t.Fatalf("node previously %d not numbered", was)
		}
		if got.Int64() != now {
			t.Errorf("node previously %d: uid = %v, want %d", was, got, now)
		}
	}
	// The inserted node takes the identifier 3, the slot it pushed right.
	newID, ok := n.IDValue(root.Children.At(1))
	if !ok || newID.Int64() != 3 {
		t.Errorf("inserted node uid = %v, want 3", newID)
	}

	// "If another node is inserted behind the new node 4 in Fig. 1(b), the
	// entire tree must be re-numerated": the root would need fan-out 4 > k.
	st, err = n.InsertChild(root, 3, xmltree.NewElement("overflow"))
	if err != nil {
		t.Fatalf("second InsertChild: %v", err)
	}
	if !st.FullRebuild {
		t.Errorf("fan-out overflow must trigger a full rebuild")
	}
	if n.K() != 4 {
		t.Errorf("k after overflow = %d, want 4", n.K())
	}
}

// TestParentFormula checks formula (1) on hand values and against tree
// ground truth.
func TestParentFormula(t *testing.T) {
	// parent(i) = floor((i-2)/k) + 1
	cases := []struct{ i, k, want int64 }{
		{2, 3, 1}, {3, 3, 1}, {4, 3, 1},
		{5, 3, 2}, {7, 3, 2}, {8, 3, 3}, {10, 3, 3},
		{23, 3, 8}, {26, 3, 9}, {28, 3, 9},
		{2, 1, 1}, {3, 1, 2},
	}
	for _, c := range cases {
		if got := uid.Parent64(c.i, c.k); got != c.want {
			t.Errorf("Parent64(%d, %d) = %d, want %d", c.i, c.k, got, c.want)
		}
		got := uid.ParentID(big.NewInt(c.i), big.NewInt(c.k))
		if got.Int64() != c.want {
			t.Errorf("ParentID(%d, %d) = %v, want %d", c.i, c.k, got, c.want)
		}
	}
}

// TestDeletion checks cascading deletion and sibling compaction.
func TestDeletion(t *testing.T) {
	doc, labels := xmltree.PaperFigure1()
	n, err := uid.Build(doc, uid.Options{K: 3})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Delete node 2 (first child of the root): node 3 shifts to 2 and its
	// whole subtree is relabeled.
	st, err := n.DeleteChild(labels[1], 0)
	if err != nil {
		t.Fatalf("DeleteChild: %v", err)
	}
	if st.Relabeled != 6 {
		t.Errorf("relabeled = %d, want 6 (3, 8, 9, 23, 26, 27)", st.Relabeled)
	}
	if _, ok := n.IDOf(labels[2]); ok {
		t.Errorf("deleted node still numbered")
	}
	got, _ := n.IDValue(labels[3])
	if got.Int64() != 2 {
		t.Errorf("node previously 3: uid = %v, want 2", got)
	}
	got, _ = n.IDValue(labels[23])
	// 3→2, 8→5, 23→14: children of 2 are 5,6,7; children of 5 are 14,15,16.
	if got.Int64() != 14 {
		t.Errorf("node previously 23: uid = %v, want 14", got)
	}
}

// TestOverflow64 checks that the int64 fast path detects overflow on deep
// documents while the big-integer path keeps working.
func TestOverflow64(t *testing.T) {
	// A skewed tree: fan-out 20 at the top, a chain of depth 20 below:
	// identifiers ≈ 20^20 ≈ 2^86 — far past int64.
	doc := xmltree.Skewed(20, 2, 20)
	if uid.Fits64(doc) {
		t.Fatalf("expected int64 overflow on skewed(20,2,20)")
	}
	n, err := uid.Build(doc, uid.Options{})
	if err != nil {
		t.Fatalf("big-int Build: %v", err)
	}
	if n.Bits() <= 64 {
		t.Errorf("Bits() = %d, want > 64", n.Bits())
	}
	// A small balanced tree fits comfortably.
	if !uid.Fits64(xmltree.Balanced(3, 5)) {
		t.Errorf("balanced(3,5) should fit in int64")
	}
	small := xmltree.Balanced(3, 5)
	n64, err := uid.Build64(small, 0)
	if err != nil {
		t.Fatalf("Build64: %v", err)
	}
	if n64.K != 3 {
		t.Errorf("k = %d, want 3", n64.K)
	}
	// int64 and big-int enumerations agree.
	nb, _ := uid.Build(small, uid.Options{})
	for node, v := range n64.IDs {
		bv, ok := nb.IDValue(node)
		if !ok || bv.Int64() != v {
			t.Fatalf("node %s: int64 id %d, big id %v", node.Path(), v, bv)
		}
	}
}

// TestVirtualWaste checks that identifier magnitude reflects virtual-node
// padding: a skewed document burns vastly more identifier space than a
// uniform one with the same node count.
func TestVirtualWaste(t *testing.T) {
	uniform := xmltree.Balanced(2, 7) // 255 nodes, k=2
	skewed := xmltree.Skewed(50, 2, 7)
	nu, err := uid.Build(uniform, uid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := uid.Build(skewed, uid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ns.Bits() <= nu.Bits() {
		t.Errorf("skewed bits = %d, uniform bits = %d: skew must inflate identifiers",
			ns.Bits(), nu.Bits())
	}
}

// TestUpdateReverseMapConsistency guards against relabel aliasing: after an
// insertion every node must resolve from its (new) identifier.
func TestUpdateReverseMapConsistency(t *testing.T) {
	doc, labels := xmltree.PaperFigure1()
	n, err := uid.Build(doc, uid.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.InsertChild(labels[1], 1, xmltree.NewElement("new")); err != nil {
		t.Fatal(err)
	}
	for _, node := range labels[1].Nodes() {
		id, ok := n.IDOf(node)
		if !ok {
			t.Fatalf("node %s lost its identifier", node.Path())
		}
		got, found := n.NodeOf(id)
		if !found || got != node {
			t.Fatalf("identifier %v of %s resolves to %v", id, node.Path(), got)
		}
	}
}

// TestUpdateSoakShared runs the shared randomized update soak against the
// original UID.
func TestUpdateSoakShared(t *testing.T) {
	schemetest.RunUpdateSoak(t, func(t *testing.T, doc *xmltree.Node) scheme.Updatable {
		n, err := uid.Build(doc, uid.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}, 40, 7)
}
