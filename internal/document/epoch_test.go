package document_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// saveBytes serializes a snapshot's numbering for byte-exact comparison.
func saveBytes(t *testing.T, s interface {
	Numbering() *core.Numbering
}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Numbering().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestFailedWriteLeavesEpochUntouched is the headline atomicity
// regression: with 1-bit local indices a second child under b overflows
// its area, the overflow lands on an area root so healing bails, and the
// failed Insert must leave the document exactly as published — same
// snapshot pointer, same epoch, same serialized tree, same numbering
// bytes — and the document must keep working afterwards.
func TestFailedWriteLeavesEpochUntouched(t *testing.T) {
	doc, err := xmltree.ParseString("<a><b><c/></b></a>")
	if err != nil {
		t.Fatal(err)
	}
	d, err := document.FromTree(doc, document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 1, MaxLocalBits: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s1 := d.Snapshot()
	xml1 := xmltree.Serialize(s1.Tree())
	num1 := saveBytes(t, s1)

	orphan := xmltree.NewElement("d")
	if _, err := d.Insert("/a/b", 1, orphan); !errors.Is(err, core.ErrOverflow) {
		t.Fatalf("Insert err = %v, want ErrOverflow", err)
	}
	if orphan.Parent != nil {
		t.Fatal("failed insert kept ownership of the child")
	}
	s2 := d.Snapshot()
	if s2 != s1 {
		t.Fatalf("failed insert published an epoch: %d → %d", s1.Epoch(), s2.Epoch())
	}
	if got := xmltree.Serialize(s2.Tree()); got != xml1 {
		t.Fatalf("tree changed:\nbefore %s\nafter  %s", xml1, got)
	}
	if !bytes.Equal(saveBytes(t, s2), num1) {
		t.Fatal("numbering bytes changed after failed insert")
	}
	if st := d.Stats(); st.Epoch != 1 {
		t.Fatalf("epoch counter %d, want 1", st.Epoch)
	}

	// The failed write must not wedge the writer: a legal delete proceeds
	// and publishes the next epoch.
	if _, err := d.Delete("/a/b", 0); err != nil {
		t.Fatal(err)
	}
	s3 := d.Snapshot()
	if s3.Epoch() != s1.Epoch()+1 {
		t.Fatalf("epoch %d after delete, want %d", s3.Epoch(), s1.Epoch()+1)
	}
	if got := xmltree.Serialize(s3.Tree()); got != "<a><b/></a>" {
		t.Fatalf("tree after delete: %s", got)
	}
	// The pinned pre-failure snapshot is still intact.
	if got := xmltree.Serialize(s1.Tree()); got != xml1 {
		t.Fatalf("old epoch mutated by later write: %s", got)
	}
}

// TestEpochStructuralSharing pins the tentpole property: an area-confined
// write publishes an epoch that shares everything it did not write with the
// previous epoch by pointer, while the update parent, the relabeled members
// of its area and the root spine are fresh copies.
func TestEpochStructuralSharing(t *testing.T) {
	// A tight area budget splits each two-node branch (b2+b2x, a2+a2x, …)
	// into its own area, so an insert under b2 dirties exactly that area
	// and the root spine (shelfb, lib) while both shelves' other branches
	// stay untouched.
	src := "<lib><shelfa><a1><a1x/></a1><a2><a2x/></a2><a3><a3x/></a3></shelfa>" +
		"<shelfb><b1><b1x/></b1><b2><b2x/></b2><b3><b3x/></b3></shelfb></lib>"
	d, err := document.OpenString(src, document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s1 := d.Snapshot()
	if s1.Numbering().AreaCount() < 3 {
		t.Fatalf("fixture regressed: %d areas, need ≥3 for sharing to be observable",
			s1.Numbering().AreaCount())
	}

	one := func(s *document.Snapshot, q string) *xmltree.Node {
		t.Helper()
		res, _, err := s.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if len(res) != 1 {
			t.Fatalf("%q: %d results, want 1", q, len(res))
		}
		return res[0]
	}

	st, err := d.Insert("/lib/shelfb/b2", 1, xmltree.NewElement("b2y"))
	if err != nil {
		t.Fatal(err)
	}
	if st.FullRebuild {
		t.Fatal("fixture regressed: insert was not area-confined")
	}
	s2 := d.Snapshot()
	if s2 == s1 || s2.Epoch() != s1.Epoch()+1 {
		t.Fatalf("epochs %d → %d", s1.Epoch(), s2.Epoch())
	}

	// Untouched subtrees: shared by pointer across the epochs — b2x too, the
	// left sibling of the insertion point, whose label and children stand.
	for _, q := range []string{"//shelfa", "//a1", "//a2x", "//b1", "//b1x", "//b3x", "//b2x"} {
		if one(s1, q) != one(s2, q) {
			t.Errorf("untouched node %s was copied between epochs", q)
		}
	}
	// Update parent and spine: fresh copies.
	for _, q := range []string{"//b2", "//shelfb"} {
		if one(s1, q) == one(s2, q) {
			t.Errorf("touched node %s shared between epochs", q)
		}
	}
	if s1.Tree() == s2.Tree() {
		t.Error("document root shared between epochs")
	}
	// The old epoch answers as before; the new one sees the insert.
	if res, _, _ := s1.Query("//b2y"); len(res) != 0 {
		t.Errorf("old epoch sees new node: %d results", len(res))
	}
	one(s2, "//b2y")
	if got := xmltree.Serialize(s1.Tree()); got != src {
		t.Fatalf("old epoch tree mutated:\n%s", got)
	}

	// A second confined write on the other shelf: now the b-side branch is
	// the untouched one and is shared between s2 and s3.
	if _, err := d.Insert("/lib/shelfa/a2", 0, xmltree.NewElement("a2y")); err != nil {
		t.Fatal(err)
	}
	s3 := d.Snapshot()
	if one(s2, "//b2y") != one(s3, "//b2y") {
		t.Error("untouched b-side copied by a-side write")
	}
	if one(s2, "//a2x") == one(s3, "//a2x") {
		t.Error("a2x, relabeled by the insert before it, shared after the write")
	}
	// All three epochs remain individually consistent.
	for i, want := range []string{"", "<b2y/>", "<a2y/>"} {
		s := []*document.Snapshot{s1, s2, s3}[i]
		got := xmltree.Serialize(s.Tree())
		if want != "" && !strings.Contains(got, want) {
			t.Errorf("epoch %d: missing %s in %s", i, want, got)
		}
		res, _, err := s.Query("//shelfa//*")
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		if wantN := []int{6, 6, 7}[i]; len(res) != wantN {
			t.Errorf("epoch %d: %d shelfa descendants, want %d", i, len(res), wantN)
		}
	}

	// Under a wide node the spine copy shares the child list too: the new
	// open_auctions re-points one of its 300 children at the copy of the
	// auction written under, which costs it the 64-entry chunk holding that
	// entry and none of the others.
	w, err := document.FromTree(xmltree.XMark(50, 1), document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := one(w.Snapshot(), "/site/open_auctions")
	if _, err := w.Insert("/site/open_auctions/open_auction[10]", 0, xmltree.NewElement("bidder")); err != nil {
		t.Fatal(err)
	}
	after := one(w.Snapshot(), "/site/open_auctions")
	if after == before || after.NumChildren() != before.NumChildren() {
		t.Fatalf("open_auctions shared between the epochs, or its width changed: %d, %d children", before.NumChildren(), after.NumChildren())
	}
	if shared, of := after.Seq().SharedChunks(before.Seq()); of < 4 || shared != of-1 {
		t.Errorf("the new open_auctions shares %d of its %d child chunks with the previous epoch's, want all but one of at least 4", shared, of)
	}
	for i := 0; i < after.NumChildren(); i++ {
		if (after.Child(i) == before.Child(i)) != (i != 9) {
			t.Errorf("open_auction %d: shared with the previous epoch = %v", i+1, i == 9)
		}
	}
}

// TestPointQueryAllocsIndependentOfSiblings guards the one navigation path:
// each read_point template shape (bench/harness.go) through
// Snapshot.QueryMetered allocates the same small number of objects on XMark
// 20 and on XMark 100, where every sibling list is five times longer — no
// slice of an axis is built on the way to t[k].
func TestPointQueryAllocsIndependentOfSiblings(t *testing.T) {
	queries := []string{
		"/site/regions/europe/item[70]/name",
		"/site/regions/namerica/item[75]/description/parlist/listitem[1]/text",
		"/site/people/person[190]/ancestor::*",
		"/site/open_auctions/open_auction[110]/bidder[1]/increase",
	}
	allocs := func(scale int) []float64 {
		d, err := document.FromTree(xmltree.XMark(scale, 1), document.Options{})
		if err != nil {
			t.Fatal(err)
		}
		snap := d.Snapshot()
		out := make([]float64, len(queries))
		for i, q := range queries {
			if res, plan, err := snap.QueryMetered(q, nil, nil, false); err != nil || res.Len() == 0 || plan.Kind != query.NavPlan {
				t.Fatalf("XMark %d: %q: %d results by a %s plan, err %v", scale, q, res.Len(), plan.Kind, err)
			}
			out[i] = testing.AllocsPerRun(20, func() { snap.QueryMetered(q, nil, nil, false) })
		}
		return out
	}
	small, large := allocs(20), allocs(100)
	for i, q := range queries {
		// Equal, give or take the pooled objects a run happens to find (the
		// race detector empties sync.Pools at random); one materialised axis
		// would put hundreds between the two.
		if math.Abs(small[i]-large[i]) > 4 || small[i] > 80 {
			t.Errorf("%q: %v allocations on XMark 20, %v on XMark 100; want the same small number", q, small[i], large[i])
		}
	}
}
