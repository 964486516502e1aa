package prepost_test

import (
	"testing"

	"repro/internal/prepost"
	"repro/internal/scheme"
	"repro/internal/scheme/schemetest"
	"repro/internal/xmltree"
)

func TestConformanceDietz(t *testing.T) {
	schemetest.Run(t, func(t *testing.T, doc *xmltree.Node) scheme.Scheme {
		n, err := prepost.Build(doc)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return n
	})
}

func TestConformanceLiMoon(t *testing.T) {
	for _, slack := range []int64{1, 3} {
		slack := slack
		t.Run(map[int64]string{1: "tight", 3: "slack3"}[slack], func(t *testing.T) {
			schemetest.Run(t, func(t *testing.T, doc *xmltree.Node) scheme.Scheme {
				n, err := prepost.BuildLiMoon(doc, slack)
				if err != nil {
					t.Fatalf("BuildLiMoon: %v", err)
				}
				return n
			})
		})
	}
}

// TestDietzLabels pins pre/post labels on a small tree.
func TestDietzLabels(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b><d/><e/></b><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := prepost.Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	want := map[string][2]int64{
		"a": {0, 4}, "b": {1, 2}, "d": {2, 0}, "e": {3, 1}, "c": {4, 3},
	}
	root.Walk(func(d *xmltree.Node) bool {
		w := want[d.Name]
		id, _ := n.IDOf(d)
		pid := id.(prepost.ID)
		if pid.Pre != w[0] || pid.Post != w[1] {
			t.Errorf("node %s: (pre, post) = (%d, %d), want (%d, %d)",
				d.Name, pid.Pre, pid.Post, w[0], w[1])
		}
		return true
	})
}

// TestDescendantRange checks the preorder containment interval.
func TestDescendantRange(t *testing.T) {
	doc := xmltree.Balanced(3, 3)
	n, err := prepost.Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	for _, node := range root.Nodes() {
		id, _ := n.IDOf(node)
		got := n.Descendants(id)
		want := xmltree.Descendants(node)
		if len(got) != len(want) {
			t.Fatalf("node %s: %d descendants via range, want %d",
				node.Path(), len(got), len(want))
		}
		for i := range got {
			wid, _ := n.IDOf(want[i])
			if got[i] != wid {
				t.Fatalf("node %s: descendant %d = %v, want %v",
					node.Path(), i, got[i], wid)
			}
		}
	}
}

// TestLiMoonSlackContainment checks the containment invariant with slack:
// every proper descendant's order falls inside the ancestor's interval and
// no non-descendant's does.
func TestLiMoonSlackContainment(t *testing.T) {
	doc := xmltree.Random(xmltree.RandomConfig{Nodes: 300, MaxFanout: 5, Seed: 3})
	n, err := prepost.BuildLiMoon(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	nodes := doc.DocumentElement().Nodes()
	for _, a := range nodes {
		for _, d := range nodes {
			ida, _ := n.IDOf(a)
			idd, _ := n.IDOf(d)
			want := xmltree.IsAncestor(a, d)
			if got := n.IsAncestor(ida, idd); got != want {
				t.Fatalf("IsAncestor(%s, %s) = %v, want %v", ida, idd, got, want)
			}
		}
	}
}

// TestLiMoonGapInsertion checks the extended-preorder update behaviour:
// with slack, single-node insertions land in gaps without relabeling;
// when the gap is exhausted the whole document is relabeled at once.
func TestLiMoonGapInsertion(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b><c/><d/></b><e/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := prepost.BuildLiMoon(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	b := root.Child(0)
	free := 0
	rebuilds := 0
	for i := 0; i < 12; i++ {
		st, err := n.InsertChild(b, 1, xmltree.NewElement("x"))
		if err != nil {
			t.Fatal(err)
		}
		if st.FullRebuild {
			rebuilds++
		} else {
			if st.Relabeled != 0 {
				t.Fatalf("gap insertion relabeled %d nodes", st.Relabeled)
			}
			free++
		}
		// The scheme must stay correct after every operation.
		nodes := root.Nodes()
		for _, x := range nodes {
			for _, y := range nodes {
				ix, _ := n.IDOf(x)
				iy, _ := n.IDOf(y)
				if got, want := n.IsAncestor(ix, iy), xmltree.IsAncestor(x, y); got != want {
					t.Fatalf("op %d: IsAncestor(%s,%s)=%v want %v", i, ix, iy, got, want)
				}
				if got, want := n.CompareOrder(ix, iy), xmltree.CompareOrder(x, y); got != want {
					t.Fatalf("op %d: CompareOrder(%s,%s)=%d want %d", i, ix, iy, got, want)
				}
			}
		}
	}
	if free == 0 {
		t.Fatalf("slack 4 should absorb at least one insertion")
	}
	if rebuilds == 0 {
		t.Fatalf("12 insertions at one spot should exhaust the slack at least once")
	}
}

// TestLiMoonDeletion checks that deletion drops labels without relabeling.
func TestLiMoonDeletion(t *testing.T) {
	doc := xmltree.Balanced(3, 3)
	n, err := prepost.BuildLiMoon(doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	victim := root.Child(1)
	removed := victim.Nodes()
	st, err := n.DeleteChild(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Relabeled != 0 || st.FullRebuild {
		t.Fatalf("deletion must be free: %+v", st)
	}
	for _, x := range removed {
		if _, ok := n.IDOf(x); ok {
			t.Fatalf("deleted node %s still labeled", x.Path())
		}
	}
	for _, x := range root.Nodes() {
		if _, ok := n.IDOf(x); !ok {
			t.Fatalf("surviving node %s lost its label", x.Path())
		}
	}
}

// TestUpdateSoakShared runs the shared randomized update soak against the
// Li–Moon extended preorder.
func TestUpdateSoakShared(t *testing.T) {
	schemetest.RunUpdateSoak(t, func(t *testing.T, doc *xmltree.Node) scheme.Updatable {
		n, err := prepost.BuildLiMoon(doc, 4)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}, 40, 9)
}
