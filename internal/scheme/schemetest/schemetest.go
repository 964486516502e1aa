// Package schemetest provides a conformance harness that validates any
// scheme.Scheme implementation against the pointer-tree ground truth of
// package xmltree. Each numbering-scheme package runs this harness from its
// own tests, so all schemes are held to identical semantics.
package schemetest

import (
	"math/rand"
	"testing"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// Builder constructs a scheme over a document snapshot.
type Builder func(t *testing.T, doc *xmltree.Node) scheme.Scheme

// Corpus returns the standard set of documents every scheme must handle:
// the paper's two figure trees plus generated shapes covering deep, wide,
// skewed, recursive and random topologies.
func Corpus() map[string]*xmltree.Node {
	fig1, _ := xmltree.PaperFigure1()
	example, _, _ := xmltree.PaperExampleTree()
	return map[string]*xmltree.Node{
		"figure1":     fig1,
		"paper":       example,
		"single":      singleNode(),
		"linear":      xmltree.Linear(12),
		"balanced3x4": xmltree.Balanced(3, 4),
		"balanced5x3": xmltree.Balanced(5, 3),
		"skewed":      xmltree.Skewed(9, 2, 6),
		"recursive":   xmltree.Recursive(2, 5),
		"random200":   xmltree.Random(xmltree.RandomConfig{Nodes: 200, MaxFanout: 6, Seed: 7}),
		"random500":   xmltree.Random(xmltree.RandomConfig{Nodes: 500, MaxFanout: 10, DepthBias: 0.5, Seed: 42}),
	}
}

func singleNode() *xmltree.Node {
	doc := xmltree.NewDocument()
	doc.AppendChild(xmltree.NewElement("only"))
	return doc
}

// Run exercises the full conformance suite for one scheme builder over the
// standard corpus.
func Run(t *testing.T, build Builder) {
	for name, doc := range Corpus() {
		doc := doc
		t.Run(name, func(t *testing.T) {
			RunOn(t, build(t, doc), doc)
		})
	}
}

// RunOn exercises the conformance checks for an already-built scheme over
// one document: identity, parent, ancestry, document order, the key-order
// contract for schemes declaring Capabilities.OrderedKeys, and the axes
// where the scheme implements AxisScheme.
func RunOn(t *testing.T, s scheme.Scheme, doc *xmltree.Node) {
	t.Helper()
	root := doc.DocumentElement()
	nodes := root.Nodes()
	checkUniqueness(t, s, nodes)
	checkRoundTrip(t, s, nodes)
	checkParent(t, s, nodes)
	checkAncestor(t, s, nodes)
	checkOrder(t, s, nodes)
	if scheme.CapsOf(s).OrderedKeys {
		CheckKeyOrder(t, s, nodes)
	}
	if ax, ok := s.(scheme.AxisScheme); ok {
		checkAxes(t, ax, nodes)
	}
}

func checkUniqueness(t *testing.T, s scheme.Scheme, nodes []*xmltree.Node) {
	t.Helper()
	seen := map[string]*xmltree.Node{}
	for _, n := range nodes {
		id, ok := s.IDOf(n)
		if !ok {
			t.Fatalf("%s: no identifier for node %s", s.Name(), n.Path())
		}
		key := string(id.Key())
		if prev, dup := seen[key]; dup {
			t.Fatalf("%s: identifier %s assigned to both %s and %s",
				s.Name(), id, prev.Path(), n.Path())
		}
		seen[key] = n
	}
}

func checkRoundTrip(t *testing.T, s scheme.Scheme, nodes []*xmltree.Node) {
	t.Helper()
	for _, n := range nodes {
		id, _ := s.IDOf(n)
		got, ok := s.NodeOf(id)
		if !ok || got != n {
			t.Fatalf("%s: NodeOf(IDOf(%s)) = %v, want the node itself",
				s.Name(), n.Path(), got)
		}
	}
}

func checkParent(t *testing.T, s scheme.Scheme, nodes []*xmltree.Node) {
	t.Helper()
	for _, n := range nodes {
		id, _ := s.IDOf(n)
		pid, ok := s.Parent(id)
		if n.Parent == nil || n.Parent.Kind == xmltree.Document {
			if ok {
				t.Fatalf("%s: Parent(%s) = %s for the root, want none", s.Name(), id, pid)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s: Parent(%s) missing for node %s", s.Name(), id, n.Path())
		}
		wantID, _ := s.IDOf(n.Parent)
		if string(pid.Key()) != string(wantID.Key()) {
			t.Fatalf("%s: Parent(%s) = %s, want %s (node %s)",
				s.Name(), id, pid, wantID, n.Path())
		}
	}
}

func checkAncestor(t *testing.T, s scheme.Scheme, nodes []*xmltree.Node) {
	t.Helper()
	// Exhaustive on small trees, sampled stride on big ones.
	stride := 1
	if len(nodes) > 120 {
		stride = len(nodes) / 120
	}
	for i := 0; i < len(nodes); i += stride {
		for j := 0; j < len(nodes); j += stride {
			a, b := nodes[i], nodes[j]
			ida, _ := s.IDOf(a)
			idb, _ := s.IDOf(b)
			want := xmltree.IsAncestor(a, b)
			if got := s.IsAncestor(ida, idb); got != want {
				t.Fatalf("%s: IsAncestor(%s, %s) = %v, want %v (%s vs %s)",
					s.Name(), ida, idb, got, want, a.Path(), b.Path())
			}
		}
	}
}

func checkOrder(t *testing.T, s scheme.Scheme, nodes []*xmltree.Node) {
	t.Helper()
	stride := 1
	if len(nodes) > 120 {
		stride = len(nodes) / 120
	}
	for i := 0; i < len(nodes); i += stride {
		for j := 0; j < len(nodes); j += stride {
			a, b := nodes[i], nodes[j]
			ida, _ := s.IDOf(a)
			idb, _ := s.IDOf(b)
			want := xmltree.CompareOrder(a, b)
			if got := s.CompareOrder(ida, idb); got != want {
				t.Fatalf("%s: CompareOrder(%s, %s) = %d, want %d (%s vs %s)",
					s.Name(), ida, idb, got, want, a.Path(), b.Path())
			}
		}
	}
}

func checkAxes(t *testing.T, s scheme.AxisScheme, nodes []*xmltree.Node) {
	t.Helper()
	stride := 1
	if len(nodes) > 60 {
		stride = len(nodes) / 60
	}
	for i := 0; i < len(nodes); i += stride {
		n := nodes[i]
		id, _ := s.IDOf(n)
		compareAxis(t, s, "ancestor", id, n, s.Ancestors(id), dropDocument(xmltree.Ancestors(n)))
		compareAxis(t, s, "child", id, n, s.Children(id), n.AppendChildren(nil))
		compareAxis(t, s, "descendant", id, n, s.Descendants(id), xmltree.Descendants(n))
		compareAxis(t, s, "following-sibling", id, n, s.FollowingSiblings(id), xmltree.FollowingSiblings(n))
		compareAxis(t, s, "preceding-sibling", id, n, s.PrecedingSiblings(id), xmltree.PrecedingSiblings(n))
		compareAxis(t, s, "following", id, n, s.Following(id), xmltree.Following(n))
		compareAxis(t, s, "preceding", id, n, s.Preceding(id), xmltree.Preceding(n))
	}
}

// dropDocument filters the synthetic Document node out of a ground-truth
// node list: numbering schemes number the element tree only.
func dropDocument(nodes []*xmltree.Node) []*xmltree.Node {
	out := nodes[:0:0]
	for _, n := range nodes {
		if n.Kind != xmltree.Document {
			out = append(out, n)
		}
	}
	return out
}

func compareAxis(t *testing.T, s scheme.AxisScheme, axis string, id scheme.ID, n *xmltree.Node, got []scheme.ID, want []*xmltree.Node) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s axis of %s (%s): got %d nodes, want %d",
			s.Name(), axis, id, n.Path(), len(got), len(want))
	}
	for i := range got {
		wantID, ok := s.IDOf(want[i])
		if !ok {
			t.Fatalf("%s: ground-truth node %s has no identifier", s.Name(), want[i].Path())
		}
		if string(got[i].Key()) != string(wantID.Key()) {
			t.Fatalf("%s: %s axis of %s (%s): position %d: got %s, want %s (%s)",
				s.Name(), axis, id, n.Path(), i, got[i], wantID, want[i].Path())
		}
	}
}

// UpdatableBuilder constructs an updatable scheme over a document snapshot.
type UpdatableBuilder func(t *testing.T, doc *xmltree.Node) scheme.Updatable

// RunUpdateSoak drives a deterministic random sequence of insertions and
// deletions through an Updatable scheme and re-validates the core Scheme
// semantics (identifier uniqueness, parent, ancestor, order) against the
// pointer tree after every operation.
func RunUpdateSoak(t *testing.T, build UpdatableBuilder, ops int, seed int64) {
	doc := xmltree.Random(xmltree.RandomConfig{Nodes: 80, MaxFanout: 4, Seed: seed})
	s := build(t, doc)
	root := doc.DocumentElement()
	rng := rand.New(rand.NewSource(seed))
	for op := 0; op < ops; op++ {
		var elements []*xmltree.Node
		root.Walk(func(x *xmltree.Node) bool {
			if x.Kind == xmltree.Element {
				elements = append(elements, x)
			}
			return true
		})
		target := elements[rng.Intn(len(elements))]
		if rng.Intn(3) > 0 || target.NumChildren() == 0 {
			pos := 0
			if target.NumChildren() > 0 {
				pos = rng.Intn(target.NumChildren() + 1)
			}
			if _, err := s.InsertChild(target, pos, xmltree.NewElement("soak")); err != nil {
				t.Fatalf("op %d: InsertChild: %v", op, err)
			}
		} else {
			if _, err := s.DeleteChild(target, rng.Intn(target.NumChildren())); err != nil {
				t.Fatalf("op %d: DeleteChild: %v", op, err)
			}
		}
		validateSnapshot(t, s, root, op)
	}
}

// validateSnapshot checks the scheme invariants on the current tree.
func validateSnapshot(t *testing.T, s scheme.Scheme, root *xmltree.Node, op int) {
	t.Helper()
	nodes := root.Nodes()
	seen := map[string]bool{}
	for _, x := range nodes {
		id, ok := s.IDOf(x)
		if !ok {
			t.Fatalf("op %d: node %s unnumbered", op, x.Path())
		}
		k := string(id.Key())
		if seen[k] {
			t.Fatalf("op %d: duplicate identifier %s", op, id)
		}
		seen[k] = true
		pid, ok := s.Parent(id)
		if x.Parent.Kind == xmltree.Document {
			if ok {
				t.Fatalf("op %d: root has parent %s", op, pid)
			}
		} else {
			want, _ := s.IDOf(x.Parent)
			if !ok || string(pid.Key()) != string(want.Key()) {
				t.Fatalf("op %d: Parent(%s) = %v, want %v (%s)", op, id, pid, want, x.Path())
			}
		}
	}
	stride := 1
	if len(nodes) > 40 {
		stride = len(nodes) / 40
	}
	for i := 0; i < len(nodes); i += stride {
		for j := 0; j < len(nodes); j += stride {
			a, b := nodes[i], nodes[j]
			ida, _ := s.IDOf(a)
			idb, _ := s.IDOf(b)
			if got, want := s.IsAncestor(ida, idb), xmltree.IsAncestor(a, b); got != want {
				t.Fatalf("op %d: IsAncestor(%s, %s) = %v, want %v", op, ida, idb, got, want)
			}
			if got, want := s.CompareOrder(ida, idb), xmltree.CompareOrder(a, b); got != want {
				t.Fatalf("op %d: CompareOrder(%s, %s) = %d, want %d", op, ida, idb, got, want)
			}
		}
	}
}
