package index_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// spliceHarness drives index.ApplyDelta the way epoch publication does — a
// mutable master numbering, one frozen numbering per epoch — and derives
// each step's edits independently of core's deltas, by comparing the
// element→identifier binding before and after the step.
type spliceHarness struct {
	t      *testing.T
	rng    *rand.Rand
	master *xmltree.Node
	num    *core.Numbering // numbers master, mutated by every write
	ix     *index.NameIndex
	bound  map[*xmltree.Node]core.ID // the epoch ix describes
	writes int
	fresh  int // suffix of the next never-seen name
}

var spliceNames = []string{"a", "b", "c"}

// spliceDocSize is the element count the random histories start from and
// hover around: about four blocks to a name.
const spliceDocSize = 1500

func newSpliceHarness(t *testing.T, seed int64) *spliceHarness {
	t.Helper()
	doc := xmltree.Random(xmltree.RandomConfig{Nodes: spliceDocSize, MaxFanout: 8, Seed: seed})
	i := 0
	doc.Walk(func(x *xmltree.Node) bool {
		if x.Kind == xmltree.Element {
			x.Name = spliceNames[i%len(spliceNames)]
			i++
		}
		return true
	})
	num, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 16, AdjustFanout: true}})
	if err != nil {
		t.Fatal(err)
	}
	h := &spliceHarness{t: t, rng: rand.New(rand.NewSource(seed)), master: doc, num: num}
	tree, frozen := h.freeze()
	h.ix = index.Build(tree.DocumentElement(), frozen)
	h.bound = h.binding()
	return h
}

// freeze returns an immutable copy of the master tree and its numbering.
func (h *spliceHarness) freeze() (*xmltree.Node, *core.Numbering) {
	h.t.Helper()
	tree, mapping := h.master.CloneWithMap()
	num, err := h.num.CloneFor(tree, mapping)
	if err != nil {
		h.t.Fatal(err)
	}
	return tree, num
}

func (h *spliceHarness) binding() map[*xmltree.Node]core.ID {
	out := make(map[*xmltree.Node]core.ID)
	h.master.DocumentElement().Walk(func(x *xmltree.Node) bool {
		if x.Kind == xmltree.Element {
			if id, ok := h.num.RUID(x); ok {
				out[x] = id
			}
		}
		return true
	})
	return out
}

func (h *spliceHarness) randomElement() *xmltree.Node {
	els := h.master.DocumentElement().Elements()
	return els[h.rng.Intn(len(els))]
}

// subtree builds n elements named name, four children to a node, so one
// insert lands n postings in one place without deepening the document much.
func subtree(name string, n int) *xmltree.Node {
	nodes := []*xmltree.Node{xmltree.NewElement(name)}
	for i := 1; i < n; i++ {
		c := xmltree.NewElement(name)
		nodes[(i-1)/4].AppendChild(c)
		nodes = append(nodes, c)
	}
	return nodes[0]
}

// insert attaches a subtree of n elements below a random element. Parents
// are shallow: area indices grow exponentially with the depth of the frame,
// and a history that only ever deepens the document would leave the range
// the posting codec encodes (core/keycodec.go).
func (h *spliceHarness) insert(name string, n int) {
	p := h.randomElement()
	for p.Depth() > 6 {
		p = p.Parent
	}
	if _, _, err := h.num.InsertChildDelta(p, h.rng.Intn(p.Children.Len()+1), subtree(name, n)); err == nil {
		h.writes++
	}
}

// remove deletes a random element whose subtree holds at most limit
// elements (the root element is never a candidate).
func (h *spliceHarness) remove(limit int) {
	for try := 0; try < 20; try++ {
		x := h.randomElement()
		if x.Parent.Kind != xmltree.Element || len(x.Elements()) > limit {
			continue
		}
		if _, _, err := h.num.DeleteChildDelta(x.Parent, x.Index()); err == nil {
			h.writes++
		}
		return
	}
}

// removeName deletes every element named name, emptying its posting list.
func (h *spliceHarness) removeName(name string) {
	for {
		var victim *xmltree.Node
		h.master.DocumentElement().Walk(func(x *xmltree.Node) bool {
			if victim == nil && x.Kind == xmltree.Element && x.Name == name && x.Parent.Kind == xmltree.Element {
				victim = x
			}
			return victim == nil
		})
		if victim == nil {
			return
		}
		if _, _, err := h.num.DeleteChildDelta(victim.Parent, victim.Index()); err != nil {
			h.t.Fatal(err)
		}
		h.writes++
	}
}

// publish splices the writes since the last publish into the index and
// checks the result against a from-scratch build of the master.
func (h *spliceHarness) publish(paged bool) index.DeltaStats {
	h.t.Helper()
	next := h.binding()
	edits := make(map[string]*index.NameDelta)
	edit := func(name string) *index.NameDelta {
		if edits[name] == nil {
			edits[name] = &index.NameDelta{}
		}
		return edits[name]
	}
	nEdits := 0
	for x, old := range h.bound {
		if cur, ok := next[x]; !ok {
			edit(x.Name).Removed = append(edit(x.Name).Removed, old)
			nEdits++
		} else if cur != old {
			edit(x.Name).Relabeled = append(edit(x.Name).Relabeled, index.IDPair{Old: old, New: cur})
			nEdits++
		}
	}
	for x, id := range next {
		if _, had := h.bound[x]; !had {
			edit(x.Name).Inserted = append(edit(x.Name).Inserted, id)
			nEdits++
		}
	}

	prev := h.ix
	if paged {
		// The same epoch with every list's bytes behind a BlockSource.
		lists := make(map[string]*index.PostingList)
		for _, name := range prev.Names() {
			lists[name] = prev.Postings(name).List()
			if lists[name].PagedBlocks() == 0 { // an earlier paged step may have shared some
				lists[name] = pagedTwin(h.t, lists[name])
			}
		}
		var err error
		if prev, err = index.FromPostingLists(prev.RUID(), lists); err != nil {
			h.t.Fatal(err)
		}
	}
	_, rn := h.freeze()
	nix, st, err := prev.ApplyDelta(rn, edits)
	if err != nil {
		h.t.Fatalf("after %d writes: %v", h.writes, err)
	}
	if err := nix.CheckSorted(); err != nil {
		h.t.Fatalf("after %d writes: %v", h.writes, err)
	}

	// The reference: one from-scratch list per name, in walk order.
	ref := make(map[string][]core.ID)
	h.master.DocumentElement().Walk(func(x *xmltree.Node) bool {
		if id, ok := next[x]; ok {
			ref[x.Name] = append(ref[x.Name], id)
		}
		return true
	})
	if got, want := len(nix.Names()), len(ref); got != want {
		h.t.Fatalf("after %d writes: %d names %v, want %d", h.writes, got, nix.Names(), want)
	}
	for name, ids := range ref {
		want := index.BuildPostingList(ids)
		got := nix.Postings(name).List()
		sameIDs(h.t, fmt.Sprintf("%q after %d writes", name, h.writes), got.AppendAll(nil), want.AppendAll(nil))
		// The fill invariant, and the bound on fragmentation it implies.
		sks := got.Skips()
		for b := 1; b < len(sks); b++ {
			if int(sks[b-1].N)+int(sks[b].N) <= index.BlockSize {
				h.t.Fatalf("%q after %d writes: blocks %d and %d hold %d+%d postings and were not coalesced",
					name, h.writes, b-1, b, sks[b-1].N, sks[b].N)
			}
		}
		if max := 2*want.NumBlocks() + 1; got.NumBlocks() > max {
			h.t.Fatalf("%q after %d writes: %d blocks for %d postings, bound %d",
				name, h.writes, got.NumBlocks(), got.Len(), max)
		}
	}

	// Scope: a name outside the edits shares its list; inside an edited
	// name, every block counted as shared is one of the previous epoch's
	// block objects — a paged one still paged — and an edit costs at most
	// its own block and two coalesced neighbours.
	oldBlocks, newBlocks, shared := 0, 0, 0
	for _, name := range prev.Names() {
		old, cur := prev.Postings(name).List(), nix.Postings(name).List()
		if edits[name] == nil {
			if old != cur {
				h.t.Fatalf("%q untouched but not shared", name)
			}
			continue
		}
		oldBlocks += old.NumBlocks()
		kept := index.SharedBlocks(old, cur)
		shared += kept
		if old.PagedBlocks() == old.NumBlocks() && cur.PagedBlocks() != kept {
			h.t.Fatalf("after %d writes: %q keeps %d blocks of a paged list, %d of them paged",
				h.writes, name, kept, cur.PagedBlocks())
		}
	}
	for name := range edits {
		newBlocks += nix.Postings(name).List().NumBlocks()
	}
	if st.BlocksShared+st.BlocksReencoded != newBlocks {
		h.t.Fatalf("after %d writes: %d shared + %d re-encoded blocks, lists hold %d",
			h.writes, st.BlocksShared, st.BlocksReencoded, newBlocks)
	}
	if shared != st.BlocksShared {
		h.t.Fatalf("after %d writes: %d blocks reported shared, %d are the previous epoch's", h.writes, st.BlocksShared, shared)
	}
	if oldBlocks-st.BlocksShared > 3*nEdits {
		h.t.Fatalf("after %d writes: %d edits cost %d of %d blocks", h.writes, nEdits, oldBlocks-st.BlocksShared, oldBlocks)
	}
	if st.NamesTouched != len(edits) || st.NamesTouched+st.NamesShared < len(nix.Names()) {
		h.t.Fatalf("after %d writes: stats %+v for %d edited of %d names", h.writes, st, len(edits), len(nix.Names()))
	}

	h.ix, h.bound = nix, next
	return st
}

// TestSpliceMatchesRebuild is the differential test of the block splice:
// random update histories, published one write or one batch at a time, must
// leave every posting list decoding to exactly what a from-scratch build of
// the same document gives, sorted and structurally valid after every step,
// with untouched blocks shared by pointer and the block count bounded.
func TestSpliceMatchesRebuild(t *testing.T) {
	target := 10000
	if testing.Short() {
		target = 1500
	}
	h := newSpliceHarness(t, 7)
	for step := 0; h.writes < target; step++ {
		batch := 1
		if h.rng.Intn(2) == 0 {
			batch = 2 + h.rng.Intn(31) // many non-contiguous edits in one splice
		}
		for i := 0; i < batch; i++ {
			name := spliceNames[h.rng.Intn(len(spliceNames))]
			r := h.rng.Intn(100)
			if len(h.bound) > spliceDocSize*4/3 {
				r = 93 // keep the document, and the cost of a step, bounded
			}
			switch {
			case r < 45:
				h.insert(name, 1+h.rng.Intn(4))
			case r < 90:
				h.remove(8)
			case r < 92: // overflows one block several times over
				h.insert(name, 150+h.rng.Intn(300))
			case r < 94: // empties whole blocks
				h.remove(400)
			case r < 97: // a name that first appears in the delta
				h.fresh++
				h.insert(fmt.Sprintf("n%d", h.fresh), 1+h.rng.Intn(3))
			default: // ... and one that disappears in it
				if h.fresh > 0 {
					h.removeName(fmt.Sprintf("n%d", 1+h.rng.Intn(h.fresh)))
				}
			}
		}
		h.publish(step%5 == 4)
	}
}

// TestSpliceRelabelOnly: an insert of one name relabels its following
// siblings of another; that name's delta holds relabels and nothing else,
// and its list must keep its length and block layout.
func TestSpliceRelabelOnly(t *testing.T) {
	h := newSpliceHarness(t, 3)
	var p *xmltree.Node
	h.master.DocumentElement().Walk(func(x *xmltree.Node) bool {
		if p == nil && x.Kind == xmltree.Element && x.Children.Len() >= 3 {
			p = x
		}
		return p == nil
	})
	before := make(map[string]int)
	for _, name := range h.ix.Names() {
		before[name] = h.ix.Postings(name).List().NumBlocks()
	}
	if _, _, err := h.num.InsertChildDelta(p, 0, xmltree.NewElement("solo")); err != nil {
		t.Fatal(err)
	}
	st := h.publish(false)
	if st.NamesTouched < 2 {
		t.Fatalf("insert at position 0 relabeled no sibling: %+v", st)
	}
	for name, n := range before {
		if got := h.ix.Postings(name).List().NumBlocks(); got != n {
			t.Errorf("%q: relabel-only splice changed the block count %d → %d", name, n, got)
		}
	}
}

// TestSpliceRejectsUnknownEdit: an edit of an identifier the previous epoch
// never held must fail the whole ApplyDelta rather than publish a list that
// silently ignored it.
func TestSpliceRejectsUnknownEdit(t *testing.T) {
	h := newSpliceHarness(t, 5)
	ghost := core.ID{Global: 1 << 40, Local: 3}
	for _, nd := range []*index.NameDelta{
		{Removed: []core.ID{ghost}},
		{Relabeled: []index.IDPair{{Old: ghost, New: ghost}}},
	} {
		if _, _, err := h.ix.ApplyDelta(h.ix.RUID(), map[string]*index.NameDelta{"a": nd}); err == nil {
			t.Errorf("edit %+v of an unknown identifier accepted", nd)
		}
	}
	if _, _, err := h.ix.ApplyDelta(h.ix.RUID(), map[string]*index.NameDelta{"nosuch": {Removed: []core.ID{ghost}}}); err == nil {
		t.Errorf("removal from a name without postings accepted")
	}
}

// deltaBudgetFixture returns a one-name index of n postings over numbering
// num — the x children of one root, less two — and a fresh edit of it: one
// posting relabeled to the identifier after it and one inserted, so both
// epochs order by the same numbering. cmd/ruidbench's
// postings/apply_delta_bytes row mirrors it.
func deltaBudgetFixture(t *testing.T, n int) (*index.NameIndex, *core.Numbering, func() map[string]*index.NameDelta) {
	t.Helper()
	doc := xmltree.NewDocument()
	root := xmltree.NewElement("r")
	doc.AppendChild(root)
	for i := 0; i < n+2; i++ {
		root.AppendChild(xmltree.NewElement("x"))
	}
	num, err := core.Build(doc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := index.Build(root, num).RuidIDs("x")
	relabel, insert := n/2, n/4 // all[relabel+1] and all[insert] are not in the list
	ids := make([]core.ID, 0, n)
	for i, id := range all {
		if i != relabel+1 && i != insert {
			ids = append(ids, id)
		}
	}
	ix, err := index.FromPostingLists(num, map[string]*index.PostingList{"x": index.BuildPostingList(ids)})
	if err != nil {
		t.Fatal(err)
	}
	return ix, num, func() map[string]*index.NameDelta {
		return map[string]*index.NameDelta{"x": {
			Relabeled: []index.IDPair{{Old: all[relabel], New: all[relabel+1]}},
			Inserted:  []core.ID{all[insert]},
		}}
	}
}

// TestApplyDeltaByteBudget: a write pays for the directory of the list it
// touches (8 bytes a block) and the blocks it rewrites, not for a copy of
// the list. The bytes one ApplyDelta allocates, bracketed by collections so
// the runtime's count is exact, stay under a budget a whole-list copy
// (about 3 bytes a posting plus 80 a block) exceeds many times over.
func TestApplyDeltaByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race; the splice's scratch would count")
	}
	defer index.SetDebugChecks(index.SetDebugChecks(false))
	// One P: a pooled value sits in the private slot of the P that put it,
	// which a Get on another P cannot reach once a collection has moved it to
	// the victim cache, so a test goroutine woken on the other P after each
	// runtime.GC would count the splice's scratch every time.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocated := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	for _, c := range []struct{ postings, budget int }{{200000, 32 << 10}, {20000, 8 << 10}} {
		ix, num, edit := deltaBudgetFixture(t, c.postings)
		edits := make([]map[string]*index.NameDelta, 5)
		for i := range edits {
			edits[i] = edit()
		}
		// One collection between two splices, so the pooled scratch of one
		// survives to the next; the least of the trials is the splice's own.
		best := uint64(math.MaxUint64)
		runtime.GC()
		a0 := allocated()
		for _, e := range edits {
			nix, st, err := ix.ApplyDelta(num, e)
			runtime.GC()
			a1 := allocated()
			best, a0 = min(best, a1-a0), a1
			if err != nil {
				t.Fatal(err)
			}
			if got := nix.Count("x"); got != c.postings+1 || st.BlocksReencoded > 3 {
				t.Fatalf("%d postings: splice left %d postings, re-encoded %d blocks", c.postings, got, st.BlocksReencoded)
			}
		}
		t.Logf("%d postings: ApplyDelta allocated %d bytes", c.postings, best)
		if best > uint64(c.budget) {
			t.Errorf("%d postings: ApplyDelta allocated %d bytes, budget %d", c.postings, best, c.budget)
		}
	}
}
