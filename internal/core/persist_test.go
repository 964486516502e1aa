package core

import (
	"bytes"
	"testing"

	"repro/internal/xmltree"
)

// TestSaveLoadRoundTrip: a numbering saved and reloaded onto a re-parsed
// copy of the document answers every query identically.
func TestSaveLoadRoundTrip(t *testing.T) {
	src := xmltree.Serialize(xmltree.XMark(2, 3))
	doc1, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := Build(doc1, Options{Partition: PartitionConfig{MaxAreaNodes: 20, AdjustFanout: true}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n1.Save(&buf); err != nil {
		t.Fatal(err)
	}

	doc2, err := xmltree.ParseString(src) // fresh parse, same shape
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Load(doc2, &buf)
	if err != nil {
		t.Fatal(err)
	}

	if n2.Kappa() != n1.Kappa() || n2.AreaCount() != n1.AreaCount() || n2.Size() != n1.Size() {
		t.Fatalf("header mismatch: kappa %d/%d areas %d/%d size %d/%d",
			n1.Kappa(), n2.Kappa(), n1.AreaCount(), n2.AreaCount(), n1.Size(), n2.Size())
	}
	// Identifiers align position-for-position across the two parses.
	nodes1 := doc1.DocumentElement().Nodes()
	nodes2 := doc2.DocumentElement().Nodes()
	if len(nodes1) != len(nodes2) {
		t.Fatalf("document shape mismatch")
	}
	for i := range nodes1 {
		id1, ok1 := n1.RUID(nodes1[i])
		id2, ok2 := n2.RUID(nodes2[i])
		if !ok1 || !ok2 || id1 != id2 {
			t.Fatalf("node %d: ids %v/%v (ok %v/%v)", i, id1, id2, ok1, ok2)
		}
	}
	// Structural answers agree with ground truth after reload.
	verifyAgainstGroundTruth(t, n2)
	// Table K identical.
	k1 := n1.K()
	k2 := n2.K()
	if len(k1) != len(k2) {
		t.Fatalf("K sizes differ: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("K row %d: %v vs %v", i, k1[i], k2[i])
		}
	}
}

// TestSaveLoadWithAttrs round-trips an attribute-numbering snapshot.
func TestSaveLoadWithAttrs(t *testing.T) {
	src := `<a p="1" q="2"><b r="3">text</b><c/></a>`
	doc1, _ := xmltree.ParseString(src)
	n1, err := Build(doc1, Options{WithAttrs: true, Partition: PartitionConfig{MaxAreaNodes: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	doc2, _ := xmltree.ParseString(src)
	n2, err := Load(doc2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	attr := doc2.DocumentElement().Attrs()[0]
	if _, ok := n2.RUID(attr); !ok {
		t.Fatalf("attribute lost its identifier after reload")
	}
	if n2.Size() != n1.Size() {
		t.Fatalf("size %d, want %d", n2.Size(), n1.Size())
	}
}

// TestLoadAfterUpdates: updates applied after a reload behave identically.
func TestLoadAfterUpdates(t *testing.T) {
	src := xmltree.Serialize(xmltree.Balanced(3, 4))
	doc1, _ := xmltree.ParseString(src)
	n1, err := Build(doc1, Options{Partition: PartitionConfig{MaxAreaNodes: 10}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	doc2, _ := xmltree.ParseString(src)
	n2, err := Load(doc2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n2.InsertChildDelta(doc2.DocumentElement(), 0, xmltree.NewElement("fresh")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n2.DeleteChildDelta(doc2.DocumentElement(), 2); err != nil {
		t.Fatal(err)
	}
	verifyAgainstGroundTruth(t, n2)
}

// TestLoadRejectsGarbage: malformed snapshots and shape mismatches fail
// cleanly.
func TestLoadRejectsGarbage(t *testing.T) {
	doc, _ := xmltree.ParseString(`<a><b/></a>`)
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("notmagic" + string(make([]byte, 64))),
	}
	for i, data := range cases {
		if _, err := Load(doc, bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Shape mismatch: saved from a bigger document.
	big, _ := xmltree.ParseString(`<a><b/><c/><d/></a>`)
	n, err := Build(big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(doc, &buf); err == nil {
		t.Errorf("shape mismatch accepted")
	}
}

// TestQuickSaveLoad: Save/Load round-trips random documents under random
// partitions (property test).
func TestQuickSaveLoad(t *testing.T) {
	f := func(s treeSpec) bool {
		src := xmltree.Serialize(xmltree.Random(xmltree.RandomConfig{
			Nodes: s.Nodes, MaxFanout: s.MaxFanout, DepthBias: s.DepthBias, Seed: s.Seed,
		}))
		doc1, err := xmltree.ParseString(src)
		if err != nil {
			return false
		}
		n1, err := Build(doc1, Options{Partition: PartitionConfig{MaxAreaNodes: s.Budget, AdjustFanout: true}})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := n1.Save(&buf); err != nil {
			return false
		}
		doc2, err := xmltree.ParseString(src)
		if err != nil {
			return false
		}
		n2, err := Load(doc2, &buf)
		if err != nil {
			return false
		}
		nodes1 := doc1.DocumentElement().Nodes()
		nodes2 := doc2.DocumentElement().Nodes()
		for i := range nodes1 {
			id1, _ := n1.RUID(nodes1[i])
			id2, ok := n2.RUID(nodes2[i])
			if !ok || id1 != id2 {
				return false
			}
			p1, ok1, _ := n1.RParent(id1)
			p2, ok2, _ := n2.RParent(id2)
			if ok1 != ok2 || p1 != p2 {
				return false
			}
		}
		return true
	}
	if err := quickCheck(f, 25); err != nil {
		t.Fatal(err)
	}
}
