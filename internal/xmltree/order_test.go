package xmltree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIsAncestorAndLCA(t *testing.T) {
	doc := mustParse(t, `<a><b><c/><d/></b><e><f/></e></a>`)
	a := doc.DocumentElement()
	b, e := a.Child(0), a.Child(1)
	c, d := b.Child(0), b.Child(1)
	f := e.Child(0)

	if !IsAncestor(a, c) || !IsAncestor(b, c) || IsAncestor(c, a) || IsAncestor(c, c) {
		t.Fatalf("IsAncestor wrong")
	}
	if LowestCommonAncestor(c, d) != b {
		t.Fatalf("LCA(c,d) != b")
	}
	if LowestCommonAncestor(c, f) != a {
		t.Fatalf("LCA(c,f) != a")
	}
	if LowestCommonAncestor(b, c) != b {
		t.Fatalf("LCA(b,c) != b (ancestor-or-self)")
	}
}

// TestCompareOrderMatchesWalk: document order from CompareOrder equals the
// preorder walk sequence on random documents.
func TestCompareOrderMatchesWalk(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		doc := Random(RandomConfig{Nodes: 150, MaxFanout: 5, Seed: seed})
		nodes := doc.DocumentElement().Nodes()
		for i := range nodes {
			for j := range nodes {
				want := 0
				if i < j {
					want = -1
				} else if i > j {
					want = 1
				}
				if got := CompareOrder(nodes[i], nodes[j]); got != want {
					t.Fatalf("seed %d: CompareOrder(#%d, #%d) = %d, want %d",
						seed, i, j, got, want)
				}
			}
		}
	}
}

func TestCompareOrderAttributes(t *testing.T) {
	doc := mustParse(t, `<a p="1" q="2"><b r="3"/><c/></a>`)
	a := doc.DocumentElement()
	p, q := a.Attrs()[0], a.Attrs()[1]
	b, c := a.Child(0), a.Child(1)
	r := b.Attrs()[0]
	ordered := []*Node{a, p, q, b, r, c}
	for i := range ordered {
		for j := range ordered {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := CompareOrder(ordered[i], ordered[j]); got != want {
				t.Fatalf("CompareOrder(#%d, #%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestAxesGroundTruth(t *testing.T) {
	doc := mustParse(t, `<a><b><c/><d/></b><e><f/><g/></e><h/></a>`)
	a := doc.DocumentElement()
	b := a.Child(0)
	d := b.Child(1)
	e := a.Child(1)
	f := e.Child(0)

	if got := nodeNames(Following(d)); got != "e,f,g,h" {
		t.Errorf("Following(d) = %s", got)
	}
	if got := nodeNames(Preceding(f)); got != "b,c,d" {
		t.Errorf("Preceding(f) = %s", got)
	}
	if got := nodeNames(FollowingSiblings(b)); got != "e,h" {
		t.Errorf("FollowingSiblings(b) = %s", got)
	}
	if got := nodeNames(PrecedingSiblings(a.Child(2))); got != "e,b" {
		t.Errorf("PrecedingSiblings(h) = %s", got)
	}
	if got := nodeNames(Descendants(a)); got != "b,c,d,e,f,g,h" {
		t.Errorf("Descendants(a) = %s", got)
	}
	if got := nodeNames(Ancestors(d)); got != "b,a,document" {
		t.Errorf("Ancestors(d) = %s", got)
	}
}

func nodeNames(nodes []*Node) string {
	s := ""
	for i, n := range nodes {
		if i > 0 {
			s += ","
		}
		if n.Kind == Document {
			s += "document"
		} else {
			s += n.Name
		}
	}
	return s
}

// genSpec drives quick generation of random documents.
type genSpec struct {
	Nodes, MaxFanout int
	Seed             int64
}

func (genSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genSpec{Nodes: 2 + r.Intn(120), MaxFanout: 2 + r.Intn(6), Seed: r.Int63()})
}

// TestQuickOrderConsistency: CompareOrder is antisymmetric and transitive
// on random triples, and an ancestor always precedes its descendants.
func TestQuickOrderConsistency(t *testing.T) {
	f := func(s genSpec, i, j, k uint16) bool {
		doc := Random(RandomConfig{Nodes: s.Nodes, MaxFanout: s.MaxFanout, Seed: s.Seed})
		nodes := doc.DocumentElement().Nodes()
		a := nodes[int(i)%len(nodes)]
		b := nodes[int(j)%len(nodes)]
		c := nodes[int(k)%len(nodes)]
		if CompareOrder(a, b) != -CompareOrder(b, a) {
			return false
		}
		if CompareOrder(a, b) < 0 && CompareOrder(b, c) < 0 && CompareOrder(a, c) >= 0 {
			return false
		}
		if IsAncestor(a, b) && CompareOrder(a, b) != -1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFollowingPreceding: the following and preceding axes partition
// the document relative to a node together with ancestors, descendants and
// the node itself.
func TestQuickFollowingPreceding(t *testing.T) {
	f := func(s genSpec, pick uint16) bool {
		doc := Random(RandomConfig{Nodes: s.Nodes, MaxFanout: s.MaxFanout, Seed: s.Seed})
		all := doc.DocumentElement().Nodes()
		n := all[int(pick)%len(all)]
		count := len(Following(n)) + len(Preceding(n)) +
			len(Descendants(n)) + len(Ancestors(n)) + 1
		// Ancestors includes the Document node, which Nodes() excludes.
		return count == len(all)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
