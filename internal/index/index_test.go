package index_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// canon renders a pair list order-independently for comparison.
func canon(pairs []scheme.PairID) string {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = string(p.Ancestor.Key()) + "|" + string(p.Descendant.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// truthPairs is the pair set of a//d read off the pointer tree: every element
// named d with each of its proper ancestors named a.
func truthPairs(n *core.Numbering, root *xmltree.Node, a, d string) []scheme.PairID {
	var out []scheme.PairID
	for _, dn := range root.Elements() {
		if dn.Name != d {
			continue
		}
		did, _ := n.RUID(dn)
		for p := dn.Parent; p != nil && p.Kind == xmltree.Element; p = p.Parent {
			if p.Name == a {
				aid, _ := n.RUID(p)
				out = append(out, scheme.PairID{Ancestor: aid, Descendant: did})
			}
		}
	}
	return out
}

// TestSemiJoin: the semi-join returns exactly the elements named text below
// an element named item, read off the pointer tree, in document order.
func TestSemiJoin(t *testing.T) {
	doc := xmltree.XMark(2, 5)
	s, ix, _ := buildRUID(t, doc)
	semi := exec.Default().UpwardSemiJoin(s, ix.Postings("item"), ix.Postings("text"))
	var want []core.ID
	for _, x := range doc.DocumentElement().Elements() {
		if x.Name != "text" {
			continue
		}
		for p := x.Parent; p != nil && p.Kind == xmltree.Element; p = p.Parent {
			if p.Name == "item" {
				id, _ := s.RUID(x)
				want = append(want, id)
				break
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture has no item//text")
	}
	sameIDs(t, "item//text", semi, want)
}

// TestNamesAndCounts covers the small accessors.
func TestNamesAndCounts(t *testing.T) {
	doc := xmltree.DBLP(50, 1)
	s, ix, _ := buildRUID(t, doc)
	if ix.Count("article") != 50 {
		t.Fatalf("Count(article) = %d", ix.Count("article"))
	}
	names := ix.Names()
	if !sort.StringsAreSorted(names) || len(names) < 4 {
		t.Fatalf("Names() = %v", names)
	}
	if ix.RUID() != s {
		t.Fatalf("RUID() mismatch")
	}
	if ids := ix.RuidIDs("nonexistent"); len(ids) != 0 {
		t.Fatalf("RuidIDs(nonexistent) = %v", ids)
	}
}

// TestJoinRandomized: random documents, random name pairs, both join
// kernels agree with ground truth computed from the pointer tree.
func TestJoinRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		doc := xmltree.Random(xmltree.RandomConfig{
			Nodes: 250, MaxFanout: 5, Seed: int64(trial), DepthBias: 0.4,
		})
		rn, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 12}})
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(doc.DocumentElement(), rn)
		names := ix.Names()
		a := names[rng.Intn(len(names))]
		d := names[rng.Intn(len(names))]
		ancs, descs := ix.Postings(a), ix.Postings(d)
		want := truthPairs(rn, doc.DocumentElement(), a, d)
		for sname, join := range map[string]func() []scheme.PairID{
			"upward": func() []scheme.PairID { return scheme.UpwardJoinPostings(rn, ancs, descs) },
			"merge":  func() []scheme.PairID { return scheme.MergeJoinPostings(rn, ancs, descs) },
		} {
			if got := join(); canon(got) != canon(want) {
				t.Fatalf("trial %d: %s join on (%s, %s): %d pairs, want %d",
					trial, sname, a, d, len(got), len(want))
			}
		}
	}
}

// TestParentSemiJoin checks the child-step join against ground truth.
func TestParentSemiJoin(t *testing.T) {
	doc := xmltree.Recursive(2, 5)
	s, ix, _ := buildRUID(t, doc)
	got := exec.Default().ParentSemiJoin(s, ix.Postings("section"), ix.Postings("title"))
	var want []core.ID
	for _, x := range doc.DocumentElement().Elements() {
		if x.Name == "title" && x.Parent.Name == "section" {
			id, _ := s.RUID(x)
			want = append(want, id)
		}
	}
	sameIDs(t, "ParentSemiJoin", got, want)
}

// TestReverseSemiJoins checks the executor's AncestorSemiJoin and
// ChildSemiJoin against pointer ground truth.
func TestReverseSemiJoins(t *testing.T) {
	doc := xmltree.Recursive(2, 5)
	s, ix, _ := buildRUID(t, doc)

	// Sections with a title below them, and sections with a para child, in
	// document order.
	var wantA, wantC []core.ID
	for _, x := range doc.DocumentElement().Elements() {
		if x.Name != "section" {
			continue
		}
		id, _ := s.RUID(x)
		for _, d := range xmltree.Descendants(x) {
			if d.Name == "title" {
				wantA = append(wantA, id)
				break
			}
		}
		for ci := 0; ci < x.NumChildren(); ci++ {
			if x.Child(ci).Name == "para" {
				wantC = append(wantC, id)
				break
			}
		}
	}
	ex := exec.Default()
	sameIDs(t, "AncestorSemiJoin",
		ex.AncestorSemiJoin(s, ix.Postings("section"), ix.Postings("title")), wantA)
	sameIDs(t, "ChildSemiJoin",
		ex.ChildSemiJoin(s, ix.Postings("section"), ix.Postings("para")), wantC)

	// Empty inputs.
	if got := ex.AncestorSemiJoin(s, index.SlicePostings(nil), ix.Postings("title")); len(got) != 0 {
		t.Fatalf("AncestorSemiJoin(nil, ...) = %d", len(got))
	}
}
