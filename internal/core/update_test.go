package core

import (
	"math/rand"
	"testing"

	"repro/internal/xmltree"
)

// verifyAgainstGroundTruth rebuilds nothing: it checks that after a
// sequence of updates the live numbering still answers parent, ancestor and
// order queries exactly like the pointer tree.
func verifyAgainstGroundTruth(t *testing.T, n *Numbering) {
	t.Helper()
	// One binding, in master and epoch mode alike: the stamps and table K
	// agree, and Size counts exactly the numbered nodes.
	if err := n.checkK(); err != nil {
		t.Fatal(err)
	}
	if got := len(labels(n)); got != n.Size() {
		t.Fatalf("Size() = %d, tree has %d numbered nodes", n.Size(), got)
	}
	nodes := n.root.Nodes()
	for _, x := range nodes {
		id, ok := n.RUID(x)
		if !ok {
			t.Fatalf("node %s lost its identifier", x.Path())
		}
		if got, found := n.NodeOfID(id); !found || got != x {
			t.Fatalf("identifier %v of %s resolves to %v", id, x.Path(), got)
		}
		p, ok, err := n.RParent(id)
		if err != nil {
			t.Fatalf("RParent(%v): %v", id, err)
		}
		if x.Parent.Kind == xmltree.Document {
			if ok {
				t.Fatalf("root has parent %v", p)
			}
			continue
		}
		wantP, _ := n.RUID(x.Parent)
		if !ok || p != wantP {
			t.Fatalf("node %s: RParent = %v, want %v", x.Path(), p, wantP)
		}
	}
	stride := 1
	if len(nodes) > 80 {
		stride = len(nodes) / 80
	}
	for i := 0; i < len(nodes); i += stride {
		for j := 0; j < len(nodes); j += stride {
			a, b := nodes[i], nodes[j]
			ida, _ := n.RUID(a)
			idb, _ := n.RUID(b)
			if got, want := n.IsAncestor(ida, idb), xmltree.IsAncestor(a, b); got != want {
				t.Fatalf("IsAncestor(%v, %v) = %v, want %v", ida, idb, got, want)
			}
			if got, want := n.CompareOrder(ida, idb), xmltree.CompareOrder(a, b); got != want {
				t.Fatalf("CompareOrder(%v, %v) = %d, want %d", ida, idb, got, want)
			}
		}
	}
}

// labels returns the identifier of every numbered node of n's tree.
func labels(n *Numbering) map[*xmltree.Node]ID {
	out := make(map[*xmltree.Node]ID)
	n.doc.WalkFull(func(x *xmltree.Node) bool {
		if id, ok := n.RUID(x); ok {
			out[x] = id
		}
		return true
	})
	return out
}

// TestInsertScopeConfinedToArea checks §3.2's central claim: an insertion
// relabels only nodes of the update area; identifiers in descendant areas
// do not change.
func TestInsertScopeConfinedToArea(t *testing.T) {
	doc := xmltree.Balanced(3, 5) // 364 nodes
	n, err := Build(doc, Options{Partition: PartitionConfig{MaxAreaNodes: 10}})
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	rootID, _ := n.RUID(root)
	rootArea, _ := n.childContext(rootID)

	// Snapshot identifiers of all nodes outside the root's area.
	outside := map[*xmltree.Node]ID{}
	for x, id := range labels(n) {
		if id.Global != rootArea {
			outside[x] = id
		}
	}

	st, err := n.InsertChild(root, 0, xmltree.NewElement("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Relabeled == 0 {
		t.Fatalf("inserting at position 0 must shift right siblings")
	}
	area := mustRow(t, n, rootArea)
	if st.Relabeled >= n.Size() {
		t.Fatalf("relabeled %d of %d nodes: scope not confined", st.Relabeled, n.Size())
	}
	if max := len(area.slots); st.Relabeled > max {
		t.Fatalf("relabeled %d nodes, but the area enumerates only %d", st.Relabeled, max)
	}
	changedOutside := 0
	for x, old := range outside {
		if now, ok := n.RUID(x); ok && now != old {
			// Roots of child areas of the update area may legitimately get
			// a new slot (their Local changes); their Global must not.
			if now.Global != old.Global {
				t.Fatalf("node %s changed area: %v -> %v", x.Path(), old, now)
			}
			if !now.Root {
				changedOutside++
			}
		}
	}
	if changedOutside != 0 {
		t.Fatalf("%d non-root identifiers outside the update area changed", changedOutside)
	}
	verifyAgainstGroundTruth(t, n)
}

// TestInsertFanoutOverflowRebuildsOneArea checks the second §3.2 claim:
// overflowing an area's local fan-out re-enumerates that area only, not
// the document.
func TestInsertFanoutOverflowRebuildsOneArea(t *testing.T) {
	doc := xmltree.Balanced(3, 4)
	n, err := Build(doc, Options{Partition: PartitionConfig{MaxAreaNodes: 8}})
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	rootID, _ := n.RUID(root)
	ga, _ := n.childContext(rootID)
	oldFanout := mustRow(t, n, ga).fanout

	// The root has 3 children; the area fan-out is 3. A fourth child
	// overflows it.
	st, err := n.InsertChild(root, 3, xmltree.NewElement("fourth"))
	if err != nil {
		t.Fatal(err)
	}
	if st.AreaRebuilds != 1 {
		t.Fatalf("AreaRebuilds = %d, want 1", st.AreaRebuilds)
	}
	if got := mustRow(t, n, ga).fanout; got <= oldFanout {
		t.Fatalf("area fan-out %d did not grow past %d", got, oldFanout)
	}
	if st.Relabeled > len(mustRow(t, n, ga).slots) {
		t.Fatalf("relabeled %d nodes, area holds %d", st.Relabeled, len(mustRow(t, n, ga).slots))
	}
	verifyAgainstGroundTruth(t, n)
}

// TestDeleteCascadesAndCompacts checks cascading deletion: the subtree's
// identifiers (and any areas rooted in it) disappear, right siblings shift.
func TestDeleteCascadesAndCompacts(t *testing.T) {
	doc := xmltree.Balanced(3, 5)
	n, err := Build(doc, Options{Partition: PartitionConfig{MaxAreaNodes: 10}})
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	victim := root.Children.At(0)
	removedNodes := victim.Nodes()
	areasBefore := n.AreaCount()
	sizeBefore := n.Size()

	st, err := n.DeleteChild(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range removedNodes {
		if _, ok := n.RUID(x); ok {
			t.Fatalf("deleted node %s still numbered", x.Path())
		}
	}
	if n.Size() != sizeBefore-len(removedNodes) {
		t.Fatalf("size = %d, want %d", n.Size(), sizeBefore-len(removedNodes))
	}
	if n.AreaCount() >= areasBefore {
		t.Fatalf("deleting a subtree with areas must drop areas (%d -> %d)",
			areasBefore, n.AreaCount())
	}
	if st.Relabeled == 0 {
		t.Fatalf("right siblings must shift after deletion")
	}
	verifyAgainstGroundTruth(t, n)
}

// TestRandomUpdateSoak interleaves random insertions and deletions and
// re-validates the numbering against ground truth after every operation.
func TestRandomUpdateSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	doc := xmltree.Random(xmltree.RandomConfig{Nodes: 120, MaxFanout: 4, Seed: 5})
	n, err := Build(doc, Options{Partition: PartitionConfig{MaxAreaNodes: 12, AdjustFanout: true}})
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	for op := 0; op < 60; op++ {
		nodes := root.Nodes()
		target := nodes[rng.Intn(len(nodes))]
		if rng.Intn(3) > 0 || target.Children.Len() == 0 {
			pos := 0
			if target.Children.Len() > 0 {
				pos = rng.Intn(target.Children.Len() + 1)
			}
			if _, err := n.InsertChild(target, pos, xmltree.NewElement("ins")); err != nil {
				t.Fatalf("op %d: InsertChild: %v", op, err)
			}
		} else {
			if _, err := n.DeleteChild(target, rng.Intn(target.Children.Len())); err != nil {
				t.Fatalf("op %d: DeleteChild: %v", op, err)
			}
		}
	}
	verifyAgainstGroundTruth(t, n)
	// Repartitioning afterwards re-balances and stays consistent.
	if _, err := n.Repartition(PartitionConfig{MaxAreaNodes: 16}); err != nil {
		t.Fatalf("Repartition: %v", err)
	}
	verifyAgainstGroundTruth(t, n)
}

// TestInsertSubtree inserts a whole prepared subtree at once.
func TestInsertSubtree(t *testing.T) {
	doc := xmltree.Balanced(2, 3)
	n, err := Build(doc, Options{Partition: PartitionConfig{MaxAreaNodes: 6}})
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	sub := xmltree.Balanced(2, 2).DocumentElement()
	sub.Detach()
	if _, err := n.InsertChild(root.Children.At(0), 1, sub); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.RUID(sub); !ok {
		t.Fatalf("inserted subtree root not numbered")
	}
	for _, d := range xmltree.Descendants(sub) {
		if _, ok := n.RUID(d); !ok {
			t.Fatalf("inserted descendant %s not numbered", d.Path())
		}
	}
	verifyAgainstGroundTruth(t, n)
}

// TestWithAttrsNumbering: with WithAttrs, attributes get identifiers that
// behave like leading children — rparent of an attribute's identifier is
// its element, and order places attributes right after their element.
func TestWithAttrsNumbering(t *testing.T) {
	doc, err := xmltree.ParseString(`<a p="1" q="2"><b r="3"><c/></b><d/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(doc, Options{WithAttrs: true, Partition: PartitionConfig{MaxAreaNodes: 4}})
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	var check func(x *xmltree.Node)
	check = func(x *xmltree.Node) {
		for _, at := range x.Attrs {
			aid, ok := n.RUID(at)
			if !ok {
				t.Fatalf("attribute %s unnumbered", at.Path())
			}
			p, ok, err := n.RParent(aid)
			if err != nil || !ok {
				t.Fatalf("attribute %s: no parent (%v)", at.Path(), err)
			}
			want, _ := n.RUID(x)
			if p != want {
				t.Fatalf("attribute %s: parent %v, want %v", at.Path(), p, want)
			}
			xid, _ := n.RUID(x)
			if n.CompareOrder(xid, aid) != -1 {
				t.Fatalf("element must precede its attribute")
			}
			for ci := 0; ci < x.Children.Len(); ci++ {
				c := x.Children.At(ci)
				cid, _ := n.RUID(c)
				if n.CompareOrder(aid, cid) != -1 {
					t.Fatalf("attribute must precede element children")
				}
			}
		}
		for ci := 0; ci < x.Children.Len(); ci++ {
			c := x.Children.At(ci)
			check(c)
		}
	}
	check(root)
	// Size counts attributes.
	if n.Size() != 7 { // a,b,c,d + p,q,r
		t.Fatalf("size = %d, want 7", n.Size())
	}
	// Updates keep attribute identifiers consistent.
	if _, err := n.InsertChild(root, 0, xmltree.NewElement("new")); err != nil {
		t.Fatal(err)
	}
	check(root)
}
