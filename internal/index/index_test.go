package index_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/prepost"
	"repro/internal/scheme"
	"repro/internal/uid"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func buildSchemes(t *testing.T, doc *xmltree.Node) map[string]scheme.Scheme {
	t.Helper()
	rn, _, _ := buildRUID(t, doc)
	un, err := uid.Build(doc, uid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pn, err := prepost.Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]scheme.Scheme{"ruid": rn, "uid": un, "prepost": pn}
}

// canon renders a pair list order-independently for comparison.
func canon(pairs []index.Pair) string {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = string(p.Ancestor.Key()) + "|" + string(p.Descendant.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestJoinStrategiesAgree: all three join strategies produce the same pair
// set, for every scheme, on several name combinations of a recursive
// document (where section//section self-joins are the hard case).
func TestJoinStrategiesAgree(t *testing.T) {
	doc := xmltree.Recursive(2, 6)
	for name, s := range buildSchemes(t, doc) {
		lists := scheme.IDsByName(doc.DocumentElement(), s)
		cases := [][2]string{
			{"section", "title"},
			{"section", "para"},
			{"section", "section"},
			{"book", "title"},
			{"title", "para"}, // empty: titles have no para descendants
		}
		for _, c := range cases {
			ancs := lists[c[0]]
			descs := lists[c[1]]
			naive := index.NaiveJoin(s, ancs, descs)
			merge := index.MergeJoin(s, ancs, descs)
			if canon(naive) != canon(merge) {
				t.Fatalf("%s: merge join differs from naive on %v (%d vs %d pairs)",
					name, c, len(merge), len(naive))
			}
			if name != "prepost" {
				up := index.UpwardJoin(s, ancs, descs)
				if canon(naive) != canon(up) {
					t.Fatalf("%s: upward join differs from naive on %v (%d vs %d pairs)",
						name, c, len(up), len(naive))
				}
			}
		}
	}
}

// TestSemiJoin: the semi-join returns exactly the distinct descendants of
// the full join, in document order.
func TestSemiJoin(t *testing.T) {
	doc := xmltree.XMark(2, 5)
	s, ix, _ := buildRUID(t, doc)
	ancs := ix.IDs("item")
	descs := ix.IDs("text")
	full := index.UpwardJoin(s, ancs, descs)
	semi := index.UpwardSemiJoin(s, ancs, descs)
	want := map[string]bool{}
	for _, p := range full {
		want[string(p.Descendant.Key())] = true
	}
	if len(semi) != len(want) {
		t.Fatalf("semi join %d results, want %d distinct", len(semi), len(want))
	}
	for i := 1; i < len(semi); i++ {
		if s.CompareOrder(semi[i-1], semi[i]) >= 0 {
			t.Fatalf("semi join out of document order at %d", i)
		}
	}
}

// TestPathQueryMatchesXPath: the join pipeline agrees with the navigation
// engine on //n1//n2//…//nk queries.
func TestPathQueryMatchesXPath(t *testing.T) {
	docs := map[string]*xmltree.Node{
		"recursive": xmltree.Recursive(2, 6),
		"xmark":     xmltree.XMark(2, 6),
		"random": xmltree.Random(xmltree.RandomConfig{
			Nodes: 400, MaxFanout: 5, Seed: 31,
		}),
	}
	paths := map[string][][]string{
		"recursive": {
			{"book", "section", "title"},
			{"section", "section", "para"},
			{"section", "section", "section", "title"},
		},
		"xmark": {
			{"site", "regions", "item"},
			{"item", "description", "text"},
			{"open_auctions", "bidder", "increase"},
		},
		"random": {
			{"e1", "e2"}, {"e3", "e3"}, {"e0", "e5", "e7"},
		},
	}
	for dn, doc := range docs {
		rn, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 24}})
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(doc.DocumentElement(), rn)
		engine := xpath.NewEngine(doc, xpath.PointerNavigator{})
		for _, names := range paths[dn] {
			got := ix.PathQuery(names...)
			q := "//" + strings.Join(names, "//")
			want, err := engine.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %s: join pipeline %d results, xpath %d", dn, q, len(got), len(want))
			}
			for i := range got {
				node, ok := rn.NodeOf(got[i])
				if !ok || node != want[i] {
					t.Fatalf("%s %s: result %d differs", dn, q, i)
				}
			}
		}
	}
}

// TestPathQueryChainOrder: the pipeline honours the vertical order of the
// chain — //a//b//c must not match when b is above a.
func TestPathQueryChainOrder(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><b><a><c/></a></b><a><b><c/></b></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc.DocumentElement(), rn)
	got := ix.PathQuery("a", "b", "c")
	if len(got) != 1 {
		t.Fatalf("PathQuery(a,b,c) = %d results, want 1", len(got))
	}
	node, _ := rn.NodeOf(got[0])
	if node.Parent.Name != "b" || node.Parent.Parent.Name != "a" {
		t.Fatalf("wrong c matched: %s", node.Path())
	}
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
	if ids := ix.IDs("nonexistent"); len(ids) != 0 {
		t.Fatalf("IDs(nonexistent) = %v", ids)
	}
}

// TestJoinRandomized: random documents, random name pairs, all strategies
// agree with ground truth computed from the pointer tree.
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
		ancs := ix.IDs(a)
		descs := ix.IDs(d)

		// Ground truth from pointers.
		var want []index.Pair
		for _, dn := range doc.DocumentElement().Elements() {
			if dn.Name != d {
				continue
			}
			did, _ := rn.IDOf(dn)
			for p := dn.Parent; p != nil && p.Kind == xmltree.Element; p = p.Parent {
				if p.Name == a {
					aid, _ := rn.IDOf(p)
					want = append(want, index.Pair{Ancestor: aid, Descendant: did})
				}
			}
		}
		for sname, join := range map[string]func() []index.Pair{
			"upward": func() []index.Pair { return index.UpwardJoin(rn, ancs, descs) },
			"merge":  func() []index.Pair { return index.MergeJoin(rn, ancs, descs) },
			"naive":  func() []index.Pair { return index.NaiveJoin(rn, ancs, descs) },
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
	got := index.ParentSemiJoin(s, ix.IDs("section"), ix.IDs("title"))
	want := 0
	for _, x := range doc.DocumentElement().Elements() {
		if x.Name == "title" && x.Parent.Name == "section" {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("ParentSemiJoin = %d results, want %d", len(got), want)
	}
	for _, id := range got {
		node, _ := s.NodeOf(id)
		if node.Parent.Name != "section" {
			t.Fatalf("result %s has parent %s", node.Path(), node.Parent.Name)
		}
	}
}

// TestReverseSemiJoins checks AncestorSemiJoin and ChildSemiJoin against
// pointer ground truth.
func TestReverseSemiJoins(t *testing.T) {
	doc := xmltree.Recursive(2, 5)
	s, ix, _ := buildRUID(t, doc)

	gotA := index.AncestorSemiJoin(s, ix.IDs("section"), ix.IDs("title"))
	wantA := 0
	for _, x := range doc.DocumentElement().Elements() {
		if x.Name != "section" {
			continue
		}
		found := false
		for _, d := range xmltree.Descendants(x) {
			if d.Name == "title" {
				found = true
				break
			}
		}
		if found {
			wantA++
		}
	}
	if len(gotA) != wantA {
		t.Fatalf("AncestorSemiJoin = %d, want %d", len(gotA), wantA)
	}
	for i := 1; i < len(gotA); i++ {
		if s.CompareOrder(gotA[i-1], gotA[i]) >= 0 {
			t.Fatalf("AncestorSemiJoin out of order")
		}
	}

	gotC := index.ChildSemiJoin(s, ix.IDs("section"), ix.IDs("para"))
	wantC := 0
	for _, x := range doc.DocumentElement().Elements() {
		if x.Name != "section" {
			continue
		}
		for ci := 0; ci < x.Children.Len(); ci++ {
			c := x.Children.At(ci)
			if c.Name == "para" {
				wantC++
				break
			}
		}
	}
	if len(gotC) != wantC {
		t.Fatalf("ChildSemiJoin = %d, want %d", len(gotC), wantC)
	}
	// Empty inputs.
	if got := index.AncestorSemiJoin(s, nil, ix.IDs("title")); len(got) != 0 {
		t.Fatalf("AncestorSemiJoin(nil, ...) = %d", len(got))
	}
	if got := ix.PathQuery(); got != nil {
		t.Fatalf("PathQuery() = %v", got)
	}
	if got := ix.PathQuery("nonexistent", "title"); got != nil {
		t.Fatalf("PathQuery(nonexistent, ...) = %v", got)
	}
}
