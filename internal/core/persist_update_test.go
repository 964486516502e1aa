package core

import (
	"bytes"
	"testing"

	"repro/internal/xmltree"
)

// TestSaveLoadAfterUpdateHistory: a numbering that has lived through a
// post-build update history — an overflow heal that promoted a fresh area
// root, an area enlargement, and cascading deletes — serializes and
// reloads with every identifier and every row of table K bit-for-bit
// identical. This pins that the snapshot format captures update-produced
// state (promoted areas, grown fan-outs, freed slots), not just what Build
// emits.
func TestSaveLoadAfterUpdateHistory(t *testing.T) {
	doc, err := xmltree.ParseString("<r><p><q><s/></q></p><u/></r>")
	if err != nil {
		t.Fatal(err)
	}
	r := doc.DocumentElement()
	q := r.FirstChildElement("p").FirstChildElement("q")
	// One explicit area and 3-bit local indices: s sits at the local limit.
	n1, err := Build(doc, Options{
		Roots:     map[*xmltree.Node]bool{},
		Partition: PartitionConfig{MaxLocalBits: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n1.AreaCount() != 1 {
		t.Fatalf("fixture has %d areas, want 1", n1.AreaCount())
	}

	// A third child of r grows the fan-out to 3, pushing s past the local
	// limit; the overflow heals by promoting q to an area root.
	st, _, err := n1.InsertChildDelta(r, 2, xmltree.NewElement("w"))
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullRebuild || n1.AreaCount() != 2 {
		t.Fatalf("expected a healing rebuild into 2 areas, got %+v / %d areas", st, n1.AreaCount())
	}
	// An enlargement confined to the promoted area (fan-out 1 → 2).
	st, _, err = n1.InsertChildDelta(q, 1, xmltree.NewElement("t2"))
	if err != nil {
		t.Fatal(err)
	}
	if st.FullRebuild || st.AreaRebuilds != 1 {
		t.Fatalf("expected one confined area rebuild, got %+v", st)
	}
	// Deletes: one leaf, then one subtree.
	if _, _, err := n1.DeleteChildDelta(r, 1); err != nil { // u
		t.Fatal(err)
	}
	if _, _, err := n1.DeleteChildDelta(q, 0); err != nil { // s
		t.Fatal(err)
	}
	verifyAgainstGroundTruth(t, n1)

	var buf bytes.Buffer
	if err := n1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)

	// Reload onto a fresh parse of the post-update document.
	doc2, err := xmltree.ParseString(xmltree.Serialize(doc))
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
	nodes1 := doc.DocumentElement().Nodes()
	nodes2 := doc2.DocumentElement().Nodes()
	if len(nodes1) != len(nodes2) {
		t.Fatal("document shape mismatch")
	}
	for i := range nodes1 {
		id1, ok1 := n1.RUID(nodes1[i])
		id2, ok2 := n2.RUID(nodes2[i])
		if !ok1 || !ok2 || id1 != id2 {
			t.Fatalf("node %d (%s): ids %v/%v (ok %v/%v)",
				i, nodes1[i].Path(), id1, id2, ok1, ok2)
		}
	}
	k1, k2 := n1.K(), n2.K()
	if len(k1) != len(k2) {
		t.Fatalf("K sizes differ: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("K row %d: %v vs %v", i, k1[i], k2[i])
		}
	}
	verifyAgainstGroundTruth(t, n2)

	// The reloaded numbering re-serializes to the exact same bytes.
	var buf2 bytes.Buffer
	if err := n2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, buf2.Bytes()) {
		t.Fatalf("re-save differs: %d vs %d bytes", len(saved), len(buf2.Bytes()))
	}
}
