package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/xmltree"
)

// postingOrder sorts identifiers by (global, local), the order a climb over
// a posting list asks for rows in.
func postingOrder(a, b ID) int {
	if c := cmp.Compare(a.Global, b.Global); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Local, b.Local); c != 0 {
		return c
	}
	switch {
	case a.Root == b.Root:
		return 0
	case a.Root:
		return 1
	}
	return -1
}

// cursorIDs lists every identifier of n, from the slots of table K.
func cursorIDs(n *Numbering) []ID {
	var ids []ID
	n.forEachArea(func(a *area) {
		for i := range a.slots {
			if a.lower[i] == 0 {
				ids = append(ids, a.resolveLocal(i))
			}
		}
	})
	return ids
}

// climbAgrees climbs every identifier of ids, in the order given, through
// one cursor to where the climb ends, and fails at the first step whose
// answer differs from RParent's. It returns how many climbs ended on an
// identifier RParent rejects.
func climbAgrees(t *testing.T, n *Numbering, ids []ID) (foreign int) {
	t.Helper()
	var c ParentCursor
	c.Reset(n)
	for _, id := range ids {
		for cur := id; ; {
			p, ok := c.parent(cur)
			want, wantOK, err := n.RParent(cur)
			if ok != (wantOK && err == nil) || ok && p != want {
				t.Fatalf("climb from %s: cursor answers %s (%v) for %s, RParent %s (%v, %v)", id, p, ok, cur, want, wantOK, err)
			}
			if err != nil {
				foreign++
			}
			if !ok {
				break
			}
			cur = p
		}
	}
	return foreign
}

// climbAllOrders runs climbAgrees over every identifier of n in ascending,
// descending and shuffled posting order.
func climbAllOrders(t *testing.T, n *Numbering, ids []ID) (foreign int) {
	t.Helper()
	ids = slices.Clone(ids)
	slices.SortFunc(ids, postingOrder)
	foreign += climbAgrees(t, n, ids)
	slices.Reverse(ids)
	foreign += climbAgrees(t, n, ids)
	rand.New(rand.NewSource(1)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	foreign += climbAgrees(t, n, ids)
	return foreign
}

// foreignIDs returns identifiers of no row of n: global indices past the last
// row, between rows where rows are missing, and below the first, each as an
// interior node and as an area root.
func foreignIDs(n *Numbering) []ID {
	var gs []int64
	last := int64(0)
	n.forEachArea(func(a *area) {
		if a.global > last+1 {
			gs = append(gs, last+1, (last+a.global)/2)
		}
		last = a.global
	})
	gs = append(gs, last+1, last+7, 0, -3)
	var ids []ID
	for _, g := range gs {
		ids = append(ids, ID{Global: g, Local: 2}, ID{Global: g, Local: 5}, ID{Global: g, Local: 3, Root: true})
	}
	return ids
}

// flatDoc is a wide document whose areas are all frame children of the
// root's: one per child of the root element, numbered consecutively.
func flatDoc(children int) *xmltree.Node {
	doc := xmltree.NewDocument()
	r := xmltree.NewElement("r")
	doc.AppendChild(r)
	for i := 0; i < children; i++ {
		c := xmltree.NewElement("c")
		c.AppendChild(xmltree.NewElement("x"))
		c.AppendChild(xmltree.NewElement("y"))
		r.AppendChild(c)
	}
	return doc
}

// TestParentCursorAgrees holds the cursor to RParent on every climb of every
// identifier, in the three orders a scan can meet them, over a table K of
// several chunks: on a deep frame, on a fork that shares most chunks with its
// origin, and after a delete history that dropped rows and emptied a chunk.
// Foreign identifiers — past the last row, between rows, below the first —
// must end a climb exactly where RParent errors.
func TestParentCursorAgrees(t *testing.T) {
	deep, err := Build(xmltree.Recursive(3, 6), Options{Partition: PartitionConfig{MaxAreaNodes: 3}})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Build(flatDoc(1200), Options{Partition: PartitionConfig{MaxAreaNodes: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*Numbering{"deep": deep, "flat": flat} {
		if len(n.k.chunks) < 4 {
			t.Fatalf("%s: table K spans %d chunks, want at least 4", name, len(n.k.chunks))
		}
		climbAllOrders(t, n, cursorIDs(n))
	}

	// Chains and order through the cursor are the numbering's.
	ids := cursorIDs(deep)
	rng := rand.New(rand.NewSource(2))
	var c ParentCursor
	c.Reset(deep)
	for range 2000 {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if got, want := c.AppendChain(nil, a), deep.appendAncestorChain(nil, a); !slices.Equal(got, want) {
			t.Fatalf("chain of %s: cursor %v, numbering %v", a, got, want)
		}
		if got, want := c.CompareOrder(a, b), deep.CompareOrderID(a, b); got != want {
			t.Fatalf("order of %s, %s: cursor %d, numbering %d", a, b, got, want)
		}
	}

	// A fork that has written one area shares every other chunk.
	fork := deep.Fork()
	sec := fork.Root().ChildElements("section")[0]
	if _, _, err := fork.InsertChildDelta(sec, 1, xmltree.NewElement("w")); err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i, ch := range fork.k.chunks {
		if !fork.k.mine[i] && &ch[0] == &deep.k.chunks[i][0] {
			shared++
		}
	}
	if shared == 0 || shared == len(fork.k.chunks) {
		t.Fatalf("fork shares %d of %d chunks; want some but not all", shared, len(fork.k.chunks))
	}
	climbAllOrders(t, fork, cursorIDs(fork))
	climbAllOrders(t, deep, cursorIDs(deep))

	// Deleting a run of the root's children drops their rows, enough
	// consecutive ones to empty a whole chunk.
	rows, chunks := flat.k.rows, len(flat.k.chunks)
	r := flat.Root()
	for i := 0; i < 560; i++ {
		if _, _, err := flat.DeleteChildDelta(r, 250); err != nil {
			t.Fatal(err)
		}
	}
	if flat.k.rows >= rows || len(flat.k.chunks) >= chunks {
		t.Fatalf("delete history left %d rows in %d chunks, had %d in %d: no chunk emptied", flat.k.rows, len(flat.k.chunks), rows, chunks)
	}
	climbAllOrders(t, flat, cursorIDs(flat))

	// Foreign identifiers, alone and among the real ones, so that the
	// finger meets them from behind, from ahead and from the memo.
	for name, n := range map[string]*Numbering{"deep": deep, "fork": fork, "flat": flat} {
		foreign := foreignIDs(n)
		if got := climbAllOrders(t, n, foreign); got == 0 {
			t.Fatalf("%s: no foreign identifier was rejected", name)
		}
		climbAllOrders(t, n, append(cursorIDs(n), foreign...))
	}
}
