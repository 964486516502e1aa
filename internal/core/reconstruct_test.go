package core

import (
	"math/rand"
	"testing"

	"repro/internal/xmltree"
)

func TestReconstructPaperExample(t *testing.T) {
	n, nodes := buildPaperExample(t)
	// Select a scattered set: the roots of three areas plus two interior
	// nodes; expected nesting mirrors the source ancestry with elided
	// intermediates.
	pick := func(name string) ID {
		id, ok := n.RUID(nodes[name])
		if !ok {
			t.Fatalf("node %s not numbered", name)
		}
		return id
	}
	// Source ancestry: r > p > s > v > w; e is under a (different branch).
	ids := []ID{pick("w"), pick("p"), pick("e"), pick("v"), pick("r")}
	out := n.Reconstruct(ids)
	got := xmltree.Serialize(out)
	want := `<r><e/><p><v><w/></v></p></r>`
	if got != want {
		t.Fatalf("Reconstruct = %s, want %s", got, want)
	}
}

func TestReconstructForest(t *testing.T) {
	n, nodes := buildPaperExample(t)
	pick := func(name string) ID { id, _ := n.RUID(nodes[name]); return id }
	// Two unrelated subtrees plus a duplicate and an unknown identifier.
	ids := []ID{pick("c"), pick("h"), pick("c"), {Global: 99, Local: 99}}
	out := n.Reconstruct(ids)
	if got := xmltree.Serialize(out); got != `<c/><h/>` {
		t.Fatalf("Reconstruct = %s", got)
	}
}

func TestReconstructWithText(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b><c>hello</c></b><d>world</d></a>`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(doc, Options{Partition: PartitionConfig{MaxAreaNodes: 3}})
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	c := root.Children.At(0).Children.At(0)
	d := root.Children.At(1)
	idA, _ := n.RUID(root)
	idC, _ := n.RUID(c)
	idD, _ := n.RUID(d)
	out := n.ReconstructWithText([]ID{idD, idA, idC})
	got := xmltree.Serialize(out)
	if got != `<a><c>hello</c><d>world</d></a>` {
		t.Fatalf("ReconstructWithText = %s", got)
	}
}

// TestReconstructRandomInvariants: on random documents and random
// selections, the reconstruction (1) contains exactly the selected
// elements, (2) in document order, (3) nested iff ancestors in the source.
func TestReconstructRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		doc := xmltree.Random(xmltree.RandomConfig{
			Nodes: 120, MaxFanout: 5, Seed: int64(trial), DepthBias: 0.5,
		})
		n, err := Build(doc, Options{Partition: PartitionConfig{MaxAreaNodes: 10}})
		if err != nil {
			t.Fatal(err)
		}
		all := doc.DocumentElement().Nodes()
		var selected []*xmltree.Node
		var ids []ID
		for _, x := range all {
			if rng.Intn(4) == 0 {
				selected = append(selected, x)
				id, _ := n.RUID(x)
				ids = append(ids, id)
			}
		}
		out := n.Reconstruct(ids)
		var copies []*xmltree.Node
		out.Walk(func(x *xmltree.Node) bool {
			if x.Kind != xmltree.Document {
				copies = append(copies, x)
			}
			return true
		})
		if len(copies) != len(selected) {
			t.Fatalf("trial %d: %d copies for %d selected", trial, len(copies), len(selected))
		}
		for i := range copies {
			if copies[i].Name != selected[i].Name {
				t.Fatalf("trial %d: order mismatch at %d: %s vs %s",
					trial, i, copies[i].Name, selected[i].Name)
			}
		}
		// Nesting matches source ancestry: copy i is inside copy j exactly
		// when selected[i] is a descendant of selected[j].
		for i := range copies {
			for j := range copies {
				inCopy := xmltree.IsAncestor(copies[j], copies[i])
				inSrc := xmltree.IsAncestor(selected[j], selected[i])
				if inCopy != inSrc {
					t.Fatalf("trial %d: nesting mismatch (%d in %d): copy=%v src=%v",
						trial, i, j, inCopy, inSrc)
				}
			}
		}
		// The serialization parses back (if non-empty with a single root).
		if out.Children.Len() == 1 {
			if _, err := xmltree.ParseString(xmltree.Serialize(out)); err != nil {
				t.Fatalf("trial %d: reserialize: %v", trial, err)
			}
		}
	}
}
