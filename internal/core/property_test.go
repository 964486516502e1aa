package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

// treeSpec is a randomly generated document configuration for quick tests.
type treeSpec struct {
	Nodes     int
	MaxFanout int
	DepthBias float64
	Seed      int64
	Budget    int
}

// Generate implements quick.Generator with bounded, always-valid specs.
func (treeSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(treeSpec{
		Nodes:     2 + r.Intn(250),
		MaxFanout: 2 + r.Intn(8),
		DepthBias: r.Float64(),
		Seed:      r.Int63(),
		Budget:    2 + r.Intn(40),
	})
}

func (s treeSpec) build(t *testing.T) (*xmltree.Node, *Numbering) {
	t.Helper()
	doc := xmltree.Random(xmltree.RandomConfig{
		Nodes: s.Nodes, MaxFanout: s.MaxFanout, DepthBias: s.DepthBias, Seed: s.Seed,
	})
	n, err := Build(doc, Options{Partition: PartitionConfig{
		MaxAreaNodes: s.Budget, AdjustFanout: true,
	}})
	if err != nil {
		t.Fatalf("Build(%+v): %v", s, err)
	}
	return doc, n
}

// TestQuickParent: rparent() computes the true parent's identifier for
// every node of random documents under random partitions.
func TestQuickParent(t *testing.T) {
	f := func(s treeSpec) bool {
		doc, n := s.build(t)
		for _, x := range doc.DocumentElement().Nodes() {
			id, _ := n.RUID(x)
			p, ok, err := n.RParent(id)
			if err != nil {
				return false
			}
			if x.Parent.Kind == xmltree.Document {
				if ok {
					return false
				}
				continue
			}
			want, _ := n.RUID(x.Parent)
			if !ok || p != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKeyRoundTrip: identifier byte keys decode back to themselves and
// preserve (global, local) lexicographic order.
func TestQuickKeyRoundTrip(t *testing.T) {
	f := func(g1, l1 int64, r1 bool, g2, l2 int64, r2 bool) bool {
		if g1 < 0 {
			g1 = -g1
		}
		if l1 < 0 {
			l1 = -l1
		}
		if g2 < 0 {
			g2 = -g2
		}
		if l2 < 0 {
			l2 = -l2
		}
		a := ID{g1, l1, r1}
		b := ID{g2, l2, r2}
		da, ok1 := DecodeKey(a.Key())
		db, ok2 := DecodeKey(b.Key())
		if !ok1 || !ok2 || da != a || db != b {
			return false
		}
		ka, kb := string(a.Key()), string(b.Key())
		switch {
		case g1 != g2:
			return (g1 < g2) == (ka < kb)
		case l1 != l2:
			return (l1 < l2) == (ka < kb)
		default:
			return true
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOrderTrichotomy: CompareOrder is a strict total order that is
// antisymmetric and agrees with ground truth on random node pairs.
func TestQuickOrderTrichotomy(t *testing.T) {
	f := func(s treeSpec, i, j uint16) bool {
		doc, n := s.build(t)
		nodes := doc.DocumentElement().Nodes()
		a := nodes[int(i)%len(nodes)]
		b := nodes[int(j)%len(nodes)]
		ida, _ := n.RUID(a)
		idb, _ := n.RUID(b)
		got := n.CompareOrder(ida, idb)
		if got != xmltree.CompareOrder(a, b) {
			return false
		}
		return got == -n.CompareOrder(idb, ida)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAncestorIffChain: IsAncestor agrees with membership of the
// ancestor chain produced by Ancestors.
func TestQuickAncestorIffChain(t *testing.T) {
	f := func(s treeSpec, i, j uint16) bool {
		doc, n := s.build(t)
		nodes := doc.DocumentElement().Nodes()
		a := nodes[int(i)%len(nodes)]
		b := nodes[int(j)%len(nodes)]
		ida, _ := n.RUID(a)
		idb, _ := n.RUID(b)
		inChain := false
		for _, anc := range n.Ancestors(idb) {
			if anc.(ID) == ida {
				inChain = true
				break
			}
		}
		return n.IsAncestor(ida, idb) == inChain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertScope: after a random insertion, no identifier outside the
// update area changes its Global component, and the relabel count is
// bounded by the update area's size.
func TestQuickInsertScope(t *testing.T) {
	f := func(s treeSpec, pick uint16) bool {
		doc, n := s.build(t)
		nodes := doc.DocumentElement().Nodes()
		target := nodes[int(pick)%len(nodes)]
		tid, _ := n.RUID(target)
		ga, _ := n.childContext(tid)
		before := labels(n)
		st, err := n.InsertChild(target, target.Children.Len(), xmltree.NewElement("q"))
		if err != nil {
			return false
		}
		if st.FullRebuild {
			// A chain-like tree can push the grown area past the local-index
			// limit; the heal renumbers the whole tree and says so, and the
			// confinement claim is about the updates that do not overflow.
			return true
		}
		if st.Relabeled > len(mustRow(t, n, ga).slots) {
			return false
		}
		for x, old := range before {
			now, ok := n.RUID(x)
			if !ok {
				return false
			}
			if now.Global != old.Global {
				return false // no node may change areas on insertion
			}
			if now != old && !now.Root && now.Global != ga {
				return false // interior relabels must stay inside the area
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMultilevelRoundTrip: Compose ∘ Decompose is the identity on all
// identifiers of random documents.
func TestQuickMultilevelRoundTrip(t *testing.T) {
	f := func(s treeSpec) bool {
		doc := xmltree.Random(xmltree.RandomConfig{
			Nodes: s.Nodes, MaxFanout: s.MaxFanout, DepthBias: s.DepthBias, Seed: s.Seed,
		})
		ml, err := BuildMultilevel(doc, MLOptions{
			Base:        Options{Partition: PartitionConfig{MaxAreaNodes: s.Budget}},
			MaxTopAreas: 4,
		})
		if err != nil {
			return false
		}
		for _, x := range doc.DocumentElement().Nodes() {
			flat, _ := ml.Base().RUID(x)
			back, err := ml.Compose(ml.Decompose(flat))
			if err != nil || back != flat {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// quickCheck wraps testing/quick with a MaxCount for reuse across files.
func quickCheck(f any, max int) error {
	return quick.Check(f, &quick.Config{MaxCount: max})
}

// TestBuildIsAFunctionOfItsInput: two builds of one generated document give
// the same table K and the same identifier for every node — under
// AdjustFanout too, whose choice among equal-sized groups once followed map
// iteration order.
func TestBuildIsAFunctionOfItsInput(t *testing.T) {
	opts := Options{Partition: PartitionConfig{MaxAreaNodes: 64, AdjustFanout: true}}
	var k0 []KRow
	var ids0 []ID
	for round := 0; round < 4; round++ {
		doc := xmltree.XMark(40, 1)
		n, err := Build(doc, opts)
		if err != nil {
			t.Fatal(err)
		}
		var ids []ID
		for _, x := range doc.DocumentElement().Nodes() {
			id, _ := n.RUID(x)
			ids = append(ids, id)
		}
		if round == 0 {
			k0, ids0 = n.K(), ids
			continue
		}
		if !reflect.DeepEqual(n.K(), k0) {
			t.Fatalf("build %d: table K differs from the first build's", round)
		}
		if !reflect.DeepEqual(ids, ids0) {
			t.Fatalf("build %d: identifiers differ from the first build's", round)
		}
	}
}
