package ancestry_test

import (
	"math"
	"testing"

	"repro/internal/ancestry"
	"repro/internal/scheme"
	"repro/internal/scheme/schemetest"
	"repro/internal/xmltree"
)

func build(t *testing.T, doc *xmltree.Node) *ancestry.Numbering {
	t.Helper()
	n, err := ancestry.Build(doc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// TestConformance runs the shared conformance suite; the axis checks are
// skipped automatically because the scheme is not an AxisScheme.
func TestConformance(t *testing.T) {
	schemetest.Run(t, func(t *testing.T, doc *xmltree.Node) scheme.Scheme {
		return build(t, doc)
	})
}

// TestLightEdgesLogarithmic pins the compact-label guarantee: no label
// records more than ⌊log₂ n⌋ light edges, on all three generator families.
func TestLightEdgesLogarithmic(t *testing.T) {
	docs := map[string]*xmltree.Node{
		"skewed":    xmltree.Skewed(9, 2, 8),
		"recursive": xmltree.Recursive(2, 6),
		"xmark":     xmltree.XMark(1, 7),
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			n := build(t, doc)
			root := doc.DocumentElement()
			nodes := root.Nodes()
			bound := int(math.Log2(float64(len(nodes))))
			for _, d := range nodes {
				id, _ := n.IDOf(d)
				if got := id.(ancestry.ID).LightEdges(); got > bound {
					t.Fatalf("%s: %d light edges, bound ⌊log₂ %d⌋ = %d",
						d.Path(), got, len(nodes), bound)
				}
			}
		})
	}
}

// TestHeavyPathLabelsShared checks the decomposition directly: a node
// reached from its parent by the heavy edge shares the parent's light
// sequence, so a pure heavy chain keeps one label prefix.
func TestHeavyPathLabelsShared(t *testing.T) {
	doc := xmltree.Skewed(4, 1, 6)
	n := build(t, doc)
	root := doc.DocumentElement()
	rootID, _ := n.IDOf(root)
	// Descend along largest subtrees; light sequence must stay empty.
	cur := root
	for cur.Children.Len() > 0 {
		heavy := cur.Children.At(0)
		for _, c := range cur.Children.AppendTo(nil)[1:] {
			if len(xmltree.Descendants(c)) > len(xmltree.Descendants(heavy)) {
				heavy = c
			}
		}
		cur = heavy
		id, _ := n.IDOf(cur)
		if id.(ancestry.ID).LightEdges() != rootID.(ancestry.ID).LightEdges() {
			t.Fatalf("heavy-chain node %s picked up a light edge: %s", cur.Path(), id)
		}
	}
}

// TestLabelBytesBeatRuidOnDeepTrees sanity-checks the bake-off premise:
// on a deep narrow tree the compact labels are measurable and finite.
func TestLabelBytes(t *testing.T) {
	doc := xmltree.Recursive(2, 6)
	n := build(t, doc)
	if n.LabelBytes() <= 0 {
		t.Fatalf("LabelBytes = %d", n.LabelBytes())
	}
	perNode := float64(n.LabelBytes()) / float64(n.Size())
	if perNode > 64 {
		t.Fatalf("label bytes/node = %.1f, implausibly large", perNode)
	}
}
