package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/xmltree"
)

// Write-failure atomicity (see update.go): a failed InsertChild or
// DeleteChild must leave the tree and every piece of numbering state
// byte-identical to the pre-call state. On a fork — where the failed call
// may already have copied the update parent and its spine, copies that
// differ from their originals in identity only — it must read the same
// (assertReadsSame) and must not have written the numbering it was forked
// from, which is held to the byte-identical standard.

// eachOwnership runs a failure scenario twice: on the numbering Build
// returned, updated in place, and on a fork of it. check compares the
// updated numbering before and after the failed call; after the scenario the
// fork's origin must be exactly as it was.
func eachOwnership(t *testing.T, build func(t *testing.T) *Numbering, scenario func(t *testing.T, n *Numbering, check func(t *testing.T, before, after numFingerprint))) {
	t.Run("owning", func(t *testing.T) { scenario(t, build(t), assertSameFingerprint) })
	t.Run("fork", func(t *testing.T) {
		origin := build(t)
		before := fingerprint(t, origin)
		scenario(t, origin.Fork(), assertReadsSame)
		assertSameFingerprint(t, before, fingerprint(t, origin))
		verifyAgainstGroundTruth(t, origin)
	})
}

// verify holds n to the ground truth, through a clone when it is a fork.
func verify(t *testing.T, n *Numbering) {
	t.Helper()
	if n.copied != nil {
		verifyFork(t, n)
		return
	}
	verifyAgainstGroundTruth(t, n)
}

// assertReadsSame is assertSameFingerprint without node identity: same
// serialized tree, same κ and table K, same identifier on every node in
// document order (the Save image).
func assertReadsSame(t *testing.T, before, after numFingerprint) {
	t.Helper()
	if before.xml != after.xml {
		t.Fatalf("tree changed:\nbefore %s\nafter  %s", before.xml, after.xml)
	}
	if before.kappa != after.kappa || before.localLimit != after.localLimit || before.size != after.size || !reflect.DeepEqual(before.k, after.k) {
		t.Fatalf("globals or table K changed:\nbefore %v\nafter  %v", before.k, after.k)
	}
	if !bytes.Equal(before.saved, after.saved) {
		t.Fatalf("serialized numbering changed (%d vs %d bytes)", len(before.saved), len(after.saved))
	}
}

// numFingerprint captures everything observable about a numbering and its
// tree for exact before/after comparison.
type numFingerprint struct {
	xml        string
	kappa      int64
	localLimit int64
	k          []KRow
	size       int
	stamps     map[*xmltree.Node]xmltree.NodeNum // every node of the tree, zero stamps included
	nodes      map[ID]*xmltree.Node              // what each carried identifier resolves to
	areaRoots  map[*xmltree.Node]bool
	fanouts    map[int64]int64
	rootLocals map[int64]int64
	locals     map[int64]map[int64]*xmltree.Node
	boundaries map[int64]map[int64]int64
	saved      []byte
}

func fingerprint(t *testing.T, n *Numbering) numFingerprint {
	t.Helper()
	f := numFingerprint{
		xml:        xmltree.Serialize(n.doc),
		kappa:      n.kappa,
		localLimit: n.localLimit,
		k:          n.K(),
		size:       n.Size(),
		stamps:     make(map[*xmltree.Node]xmltree.NodeNum),
		nodes:      make(map[ID]*xmltree.Node),
		areaRoots:  areaRootsOf(n),
		fanouts:    make(map[int64]int64),
		rootLocals: make(map[int64]int64),
		locals:     make(map[int64]map[int64]*xmltree.Node),
		boundaries: make(map[int64]map[int64]int64),
	}
	n.doc.WalkFull(func(x *xmltree.Node) bool {
		f.stamps[x] = x.Num
		if id, ok := n.RUID(x); ok {
			f.nodes[id], _ = n.NodeOfID(id)
		}
		return true
	})
	n.forEachArea(func(a *area) {
		g := a.global
		f.fanouts[g] = a.fanout
		f.rootLocals[g] = a.rootLocal
		ls := make(map[int64]*xmltree.Node, len(a.slots))
		bs := make(map[int64]int64)
		for i, l := range a.slots {
			ls[l] = a.nodes.At(i)
			if cg := a.lower[i]; cg != 0 {
				bs[l] = cg
			}
		}
		f.locals[g] = ls
		f.boundaries[g] = bs
	})
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	f.saved = buf.Bytes()
	return f
}

// areaRootsOf returns the set S the numbering's table K is built on: the
// roots of its rows.
func areaRootsOf(n *Numbering) map[*xmltree.Node]bool {
	roots := make(map[*xmltree.Node]bool, n.AreaCount())
	n.forEachArea(func(a *area) { roots[a.root] = true })
	return roots
}

// mustRow returns the K row with global index g.
func mustRow(t *testing.T, n *Numbering, g int64) *area {
	t.Helper()
	a, ok := n.krow(g)
	if !ok {
		t.Fatalf("no K row %d", g)
	}
	return a
}

func assertSameFingerprint(t *testing.T, before, after numFingerprint) {
	t.Helper()
	if before.xml != after.xml {
		t.Fatalf("tree changed:\nbefore %s\nafter  %s", before.xml, after.xml)
	}
	if before.kappa != after.kappa || before.localLimit != after.localLimit {
		t.Fatalf("globals changed: kappa %d→%d limit %d→%d",
			before.kappa, after.kappa, before.localLimit, after.localLimit)
	}
	if !reflect.DeepEqual(before.k, after.k) {
		t.Fatalf("table K changed:\nbefore %v\nafter  %v", before.k, after.k)
	}
	for name, pair := range map[string][2]interface{}{
		"size":       {before.size, after.size},
		"stamps":     {before.stamps, after.stamps},
		"nodes":      {before.nodes, after.nodes},
		"areaRoots":  {before.areaRoots, after.areaRoots},
		"fanouts":    {before.fanouts, after.fanouts},
		"rootLocals": {before.rootLocals, after.rootLocals},
		"locals":     {before.locals, after.locals},
		"boundaries": {before.boundaries, after.boundaries},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s changed:\nbefore %v\nafter  %v", name, pair[0], pair[1])
		}
	}
	if !bytes.Equal(before.saved, after.saved) {
		t.Fatalf("serialized numbering changed (%d vs %d bytes)", len(before.saved), len(after.saved))
	}
}

func mustParse(t *testing.T, src string) *xmltree.Node {
	t.Helper()
	doc, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestInsertRollbackOnUnhealableOverflow drives InsertChild into a
// mid-re-enumeration overflow that healing cannot fix (the overflowing
// node is already an area root), after earlier slots were already
// relabeled and a child area's K row already moved. The whole update must
// roll back.
func TestInsertRollbackOnUnhealableOverflow(t *testing.T) {
	eachOwnership(t, func(t *testing.T) *Numbering {
		doc := mustParse(t, "<r><h><c1/><c2><d/></c2><c3/></h></r>")
		h := doc.DocumentElement().FirstChildElement("h")
		c2 := h.ChildElements("")[1]
		n, err := Build(doc, Options{
			Roots:     map[*xmltree.Node]bool{h: true, c2: true},
			Partition: PartitionConfig{MaxLocalBits: 2}, // local indices ≤ 4
		})
		if err != nil {
			t.Fatal(err)
		}
		// Sanity: the scenario needs h to head the area about to overflow.
		if roots := areaRootsOf(n); !roots[h] || !roots[c2] {
			t.Fatalf("fixture partition changed: areaRoots=%v", roots)
		}
		return n
	}, func(t *testing.T, n *Numbering, check func(*testing.T, numFingerprint, numFingerprint)) {
		h := func() *xmltree.Node { return n.Root().FirstChildElement("h") }
		before := fingerprint(t, n)

		// A fourth child pushes h's area to fan-out 4: slots run 2..5, past the
		// local limit of 4, overflowing at h itself — unhealable, since h
		// already heads its own area. By then the enumeration has found a new
		// slot for c1 and for c2's K row; none of it may have been written.
		w := xmltree.NewElement("w")
		st, err := n.InsertChild(h(), 0, w)
		if err == nil {
			t.Fatalf("insert unexpectedly succeeded: %+v", st)
		}
		if !errors.Is(err, ErrOverflow) {
			t.Fatalf("err = %v, want ErrOverflow", err)
		}
		if w.Parent != nil {
			t.Fatalf("failed insert left child attached at %s", w.Path())
		}
		check(t, before, fingerprint(t, n))
		verify(t, n)

		// The numbering must still accept updates after the failure.
		if _, err := n.DeleteChild(h(), 2); err != nil {
			t.Fatalf("delete after the failure: %v", err)
		}
		if _, err := n.InsertChild(h(), 0, w); err != nil {
			t.Fatalf("insert after the failure: %v", err)
		}
		verify(t, n)
	})
}

// TestInsertRollbackLeavesChainUntouched is the minimal §3.2 overflow
// geometry: with 1-bit local indices any second child overflows its area
// and no promotion can help; the attempted insert must be a perfect no-op.
func TestInsertRollbackLeavesChainUntouched(t *testing.T) {
	doc := mustParse(t, "<a><b><c/></b></a>")
	n, err := Build(doc, Options{Partition: PartitionConfig{MaxAreaNodes: 1, MaxLocalBits: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b := doc.DocumentElement().FirstChildElement("b")
	before := fingerprint(t, n)
	d := xmltree.NewElement("d")
	if _, err := n.InsertChild(b, 1, d); !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
	if d.Parent != nil || b.Children.Len() != 1 {
		t.Fatalf("tree mutated: %s", xmltree.Serialize(doc))
	}
	assertSameFingerprint(t, before, fingerprint(t, n))
	verifyAgainstGroundTruth(t, n)
}

// TestDeleteRollbackOnInjectedFailure forces the re-enumeration after a
// cascading delete to fail (a delete cannot overflow naturally: it
// re-enumerates fewer nodes with an unchanged fan-out) and checks that the
// detached subtree is reattached and every dropped identifier and area —
// the deleted subtree spans two whole areas here — is restored.
func TestDeleteRollbackOnInjectedFailure(t *testing.T) {
	eachOwnership(t, func(t *testing.T) *Numbering {
		doc := mustParse(t, "<r><s><tt><u/></tt></s><v/></r>")
		s := doc.DocumentElement().FirstChildElement("s")
		n, err := Build(doc, Options{Roots: map[*xmltree.Node]bool{s: true, s.FirstChildElement("tt"): true}})
		if err != nil {
			t.Fatal(err)
		}
		if n.AreaCount() != 3 {
			t.Fatalf("fixture has %d areas, want 3", n.AreaCount())
		}
		return n
	}, func(t *testing.T, n *Numbering, check func(*testing.T, numFingerprint, numFingerprint)) {
		before := fingerprint(t, n)

		injected := errors.New("injected re-enumeration failure")
		reEnumFailHook = func(int64) error { return injected }
		defer func() { reEnumFailHook = nil }()
		if _, err := n.DeleteChild(n.Root(), 0); !errors.Is(err, injected) {
			t.Fatalf("err = %v, want injected failure", err)
		}
		check(t, before, fingerprint(t, n))
		verify(t, n)

		// With the failure gone the same delete succeeds and drops both areas.
		reEnumFailHook = nil
		if _, err := n.DeleteChild(n.Root(), 0); err != nil {
			t.Fatal(err)
		}
		if n.AreaCount() != 1 {
			t.Fatalf("delete left %d areas, want 1", n.AreaCount())
		}
		verify(t, n)
	})
}

// TestInsertRollbackOnInjectedFailure covers the insert-side hook path on
// a document where the update area sits below other areas (the spine is
// non-trivial), so rollback is validated on interior geometry too.
func TestInsertRollbackOnInjectedFailure(t *testing.T) {
	eachOwnership(t, func(t *testing.T) *Numbering {
		n, err := Build(xmltree.Balanced(3, 4), Options{Partition: PartitionConfig{MaxAreaNodes: 8}}) // 121 nodes
		if err != nil {
			t.Fatal(err)
		}
		return n
	}, func(t *testing.T, n *Numbering, check func(*testing.T, numFingerprint, numFingerprint)) {
		target := func() *xmltree.Node { return n.Root().ChildElements("")[1] }
		before := fingerprint(t, n)

		injected := errors.New("injected re-enumeration failure")
		reEnumFailHook = func(int64) error { return injected }
		defer func() { reEnumFailHook = nil }()
		w := xmltree.NewElement("w")
		if _, err := n.InsertChild(target(), 0, w); !errors.Is(err, injected) {
			t.Fatalf("err = %v, want injected failure", err)
		}
		if w.Parent != nil {
			t.Fatal("failed insert left child attached")
		}
		check(t, before, fingerprint(t, n))

		reEnumFailHook = nil
		if _, err := n.InsertChild(target(), 0, w); err != nil {
			t.Fatal(err)
		}
		verify(t, n)
	})
}

// TestEpochCloneRejectsUpdates pins the immutability contract of published
// numberings: once sealed — by its holder, or by a fork being taken —
// structural updates must fail with ErrImmutable and change nothing.
func TestEpochCloneRejectsUpdates(t *testing.T) {
	for _, seal := range []func(*Numbering){
		func(n *Numbering) { n.Seal() },
		func(n *Numbering) { n.Fork() },
	} {
		doc := mustParse(t, "<a><b/><c/></a>")
		n, err := Build(doc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seal(n)
		before := fingerprint(t, n)
		root := doc.DocumentElement()
		if _, err := n.InsertChild(root, 0, xmltree.NewElement("x")); !errors.Is(err, ErrImmutable) {
			t.Fatalf("insert on epoch: err = %v, want ErrImmutable", err)
		}
		if _, err := n.DeleteChild(root, 0); !errors.Is(err, ErrImmutable) {
			t.Fatalf("delete on epoch: err = %v, want ErrImmutable", err)
		}
		if _, err := n.Repartition(PartitionConfig{}); !errors.Is(err, ErrImmutable) {
			t.Fatalf("repartition on epoch: err = %v, want ErrImmutable", err)
		}
		assertSameFingerprint(t, before, fingerprint(t, n))
	}
}

// TestFailedHealLeavesStampsUntouched: an overflow whose healing gets as far
// as renumbering the whole tree — twice over, promoting x and then w —
// before it meets an overflow no promotion can fix. The scratch renumbering
// must not have written a single stamp.
func TestFailedHealLeavesStampsUntouched(t *testing.T) {
	eachOwnership(t, func(t *testing.T) *Numbering {
		n, err := Build(mustParse(t, "<r><x/></r>"), Options{Partition: PartitionConfig{MaxLocalBits: 2}}) // local indices ≤ 4
		if err != nil {
			t.Fatal(err)
		}
		return n
	}, func(t *testing.T, n *Numbering, check func(*testing.T, numFingerprint, numFingerprint)) {
		before := fingerprint(t, n)

		// w's five children need fan-out 5 wherever w lands: below x in r's
		// area (overflow at x, healable: x is promoted), below x as an area
		// root (overflow at w, healable: w is promoted), and finally as an area
		// root itself, where slots 2..6 still pass the limit — unhealable. A
		// fork has cloned its whole tree for the heal by then.
		w := mustParse(t, "<w><a/><b/><c/><d/><e/></w>").DocumentElement()
		w.Detach()
		if _, err := n.InsertChild(n.Root().FirstChildElement("x"), 0, w); !errors.Is(err, ErrOverflow) {
			t.Fatalf("err = %v, want ErrOverflow", err)
		}
		if w.Parent != nil {
			t.Fatal("failed insert left child attached")
		}
		check(t, before, fingerprint(t, n))
		verify(t, n)
		assertUnnumbered(t, n, w)
	})
}

// assertUnnumbered fails unless every node of the detached subtree (its
// attributes included) answers RUID false.
func assertUnnumbered(t *testing.T, n *Numbering, sub *xmltree.Node) {
	t.Helper()
	sub.WalkFull(func(x *xmltree.Node) bool {
		if id, ok := n.RUID(x); ok {
			t.Fatalf("detached node %s still carries %v", x.Path(), id)
		}
		return true
	})
}

// assertFreshLabels checks that an insert numbered every node of sub for the
// first time: the delta counts them all as inserted and reports none of them
// as relabeled, whatever stamps the subtree carried on arrival.
func assertFreshLabels(t *testing.T, n *Numbering, sub *xmltree.Node, d *Delta) {
	t.Helper()
	in := map[*xmltree.Node]bool{}
	sub.WalkFull(func(x *xmltree.Node) bool {
		if _, ok := n.RUID(x); ok {
			in[x] = true
		}
		return true
	})
	if d.InsertedCount != len(in) || len(in) == 0 {
		t.Fatalf("InsertedCount = %d, subtree has %d numbered nodes", d.InsertedCount, len(in))
	}
	for _, r := range d.Relabels {
		if in[r.Node] {
			t.Fatalf("inserted node %s reported as relabeled %v→%v", r.Node.Path(), r.Old, r.New)
		}
	}
}

// TestDeletedSubtreeIsUnnumberedAndReinsertable: delete clears the stamps of
// everything it detaches (two whole areas here, attributes included), and
// the same subtree inserted again — elsewhere — gets only fresh labels.
func TestDeletedSubtreeIsUnnumberedAndReinsertable(t *testing.T) {
	doc := mustParse(t, `<r><s p="1"><tt q="2"><u/></tt><t2/></s><v><y/></v></r>`)
	r := doc.DocumentElement()
	s := r.FirstChildElement("s")
	n, err := Build(doc, Options{WithAttrs: true, Roots: map[*xmltree.Node]bool{s: true, s.FirstChildElement("tt"): true}})
	if err != nil {
		t.Fatal(err)
	}
	size := n.Size()
	_, d, err := n.DeleteChildDelta(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Dropped) != 6 || n.Size() != size-6 {
		t.Fatalf("dropped %d nodes, size %d→%d; want 6", len(d.Dropped), size, n.Size())
	}
	assertUnnumbered(t, n, s)
	for _, p := range d.Dropped {
		if x, ok := n.NodeOfID(p.ID); ok && x == p.Node {
			t.Fatalf("dropped identifier %v still resolves to its node", p.ID)
		}
	}
	verifyAgainstGroundTruth(t, n)

	_, d, err = n.InsertChildDelta(r.FirstChildElement("v"), 1, s)
	if err != nil {
		t.Fatal(err)
	}
	assertFreshLabels(t, n, s, d)
	if n.Size() != size {
		t.Fatalf("size after re-insert = %d, want %d", n.Size(), size)
	}
	verifyAgainstGroundTruth(t, n)
}

// TestInsertedEpochCloneGetsFreshLabels: a Clone of a node taken from
// another numbering's tree arrives carrying that numbering's stamps. It must
// be numbered from scratch, and the numbering it came from must not notice.
func TestInsertedEpochCloneGetsFreshLabels(t *testing.T) {
	doc := xmltree.Balanced(3, 4)
	n, err := Build(doc, Options{Partition: PartitionConfig{MaxAreaNodes: 8}})
	if err != nil {
		t.Fatal(err)
	}
	tree, mapping := doc.CloneWithMap()
	epoch, err := n.CloneFor(tree, mapping)
	if err != nil {
		t.Fatal(err)
	}
	kids := doc.DocumentElement().ChildElements("")
	sub := mapping[kids[0]].Clone() // spans several areas of the epoch
	if _, ok := epoch.RUID(sub); !ok {
		t.Fatal("fixture: the clone should arrive stamped")
	}

	// A node of another tree is not a node of this one, however it is stamped.
	if _, err := n.InsertChild(mapping[kids[2]], 0, xmltree.NewElement("x")); err == nil {
		t.Fatal("insert under a node of another tree accepted")
	}

	_, d, err := n.InsertChildDelta(kids[2], 1, sub)
	if err != nil {
		t.Fatal(err)
	}
	assertFreshLabels(t, n, sub, d)
	verifyAgainstGroundTruth(t, n)
	verifyAgainstGroundTruth(t, epoch)
}

// TestCheckKCatchesDisagreement: the RUID_DEBUG check reports a stamp that
// disagrees with its slot, a Size that disagrees with the slots, and every
// way a row's slot arrays can go wrong.
func TestCheckKCatchesDisagreement(t *testing.T) {
	doc := mustParse(t, "<a><b><d/><e/></b><c/></a>")
	b := doc.DocumentElement().FirstChildElement("b")
	n, err := Build(doc, Options{Roots: map[*xmltree.Node]bool{b: true}})
	if err != nil {
		t.Fatal(err)
	}
	top, low := mustRow(t, n, 1), mustRow(t, n, 2)
	if low.root != b || len(top.slots) != 3 || top.lower[1] != 2 {
		t.Fatalf("fixture partition changed: rows %v", n.K())
	}
	c := top.nodes.At(2)
	for _, tc := range []struct {
		name        string
		break_, fix func()
	}{
		{"a stale stamp", func() { c.Num.L++ }, func() { c.Num.L-- }},
		{"a wrong Size", func() { n.size++ }, func() { n.size-- }},
		{"slots out of order", func() { top.slots[1], top.slots[2] = top.slots[2], top.slots[1] }, func() { top.slots[1], top.slots[2] = top.slots[2], top.slots[1] }},
		{"a slot taken twice", func() { top.slots[2] = top.slots[1] }, func() { top.slots[2] = 3 }},
		{"nodes shorter than slots", func() { top.nodes.Delete(2) }, func() { top.nodes.Append(c) }},
		{"an empty slot", func() { top.nodes.Set(2, nil) }, func() { top.nodes.Set(2, c) }},
		{"a root outside slot 1", func() { low.nodes.Set(0, c) }, func() { low.nodes.Set(0, b) }},
		{"a boundary slot naming no area", func() { top.lower[1] = 7 }, func() { top.lower[1] = 2 }},
		{"a boundary slot the lower row does not name", func() { low.rootLocal = 3 }, func() { low.rootLocal = 2 }},
		{"an interior slot marked as boundary", func() { top.lower[2] = 2 }, func() { top.lower[2] = 0 }},
	} {
		if err := n.checkK(); err != nil {
			t.Fatalf("before %s: %v", tc.name, err)
		}
		tc.break_()
		if n.checkK() == nil {
			t.Fatalf("%s not reported", tc.name)
		}
		tc.fix()
	}
	if err := n.checkK(); err != nil {
		t.Fatal(err)
	}
}
