package index_test

import (
	"testing"

	"repro/internal/ancestry"
	"repro/internal/index"
	"repro/internal/nestedint"
	"repro/internal/scheme"
	"repro/internal/xmltree"

	// Registered by import, with ancestry and nestedint above and ruid
	// (package core, which index itself imports): the full registry.
	_ "repro/internal/prepost"
	_ "repro/internal/uid"
)

// comparisonSchemes builds the schemes the merge kernels are aimed at: one
// UID-family scheme with Depth (nestedint, doubles as the oracle via the
// Parent-climbing kernels) and the read-only compact ancestry labels.
func comparisonSchemes(t *testing.T, doc *xmltree.Node) map[string]scheme.Depther {
	t.Helper()
	nn, err := nestedint.Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	an, err := ancestry.Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]scheme.Depther{"nestedint": nn, "ancestry": an}
}

func idKeys(ids []scheme.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id.Key())
	}
	return out
}

func sameIDSlices(t *testing.T, label string, got, want []scheme.ID) {
	t.Helper()
	g, w := idKeys(got), idKeys(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d results, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: result %d differs", label, i)
		}
	}
}

// nodesNamed resolves a posting list to element names via the scheme, used
// to cross-check against pointer navigation.
func joinCases() [][2]string {
	return [][2]string{
		{"section", "title"},
		{"section", "para"},
		{"section", "section"},
		{"book", "title"},
		{"title", "para"},
	}
}

// TestMergeSemiJoinsAgreeWithClimbing: on documents where both kernel
// families run (nestedint computes parents AND compares), the comparison-
// only kernels must reproduce the Parent-climbing kernels exactly.
func TestMergeSemiJoinsAgreeWithClimbing(t *testing.T) {
	docs := map[string]*xmltree.Node{
		"recursive": xmltree.Recursive(2, 6),
		"random":    xmltree.Random(xmltree.RandomConfig{Nodes: 400, MaxFanout: 5, DepthBias: 0.35, Seed: 3}),
	}
	for dname, doc := range docs {
		nn, err := nestedint.Build(doc)
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(doc.DocumentElement(), nn)
		for _, c := range joinCases() {
			ancs, descs := ix.IDs(c[0]), ix.IDs(c[1])
			label := dname + "/" + c[0] + "//" + c[1]
			sameIDSlices(t, "MergeSemiJoin "+label,
				index.MergeSemiJoin(nn, ancs, descs),
				index.UpwardSemiJoin(nn, ancs, descs))
			sameIDSlices(t, "MergeAncestorSemiJoin "+label,
				index.MergeAncestorSemiJoin(nn, ancs, descs),
				index.AncestorSemiJoin(nn, ancs, descs))
			sameIDSlices(t, "MergeParentSemiJoin "+label,
				index.MergeParentSemiJoin(nn, ancs, descs),
				index.ParentSemiJoin(nn, ancs, descs))
			sameIDSlices(t, "MergeChildSemiJoin "+label,
				index.MergeChildSemiJoin(nn, ancs, descs),
				index.ChildSemiJoin(nn, ancs, descs))
		}
	}
}

// TestMergeKernelsAcrossSchemes: the comparison-only kernels must produce
// identical result key sets under every scheme that can run them — results
// are scheme-independent node sets.
func TestMergeKernelsAcrossSchemes(t *testing.T) {
	doc := xmltree.Recursive(3, 5)
	schemes := comparisonSchemes(t, doc)
	for _, c := range joinCases() {
		var wantSemi, wantAnc, wantPar, wantChild []string
		first := true
		for sname, s := range schemes {
			ix := index.Build(doc.DocumentElement(), s)
			ancs, descs := ix.IDs(c[0]), ix.IDs(c[1])
			semi := nodeSet(t, s, index.MergeSemiJoin(s, ancs, descs))
			anc := nodeSet(t, s, index.MergeAncestorSemiJoin(s, ancs, descs))
			par := nodeSet(t, s, index.MergeParentSemiJoin(s, ancs, descs))
			child := nodeSet(t, s, index.MergeChildSemiJoin(s, ancs, descs))
			if first {
				wantSemi, wantAnc, wantPar, wantChild = semi, anc, par, child
				first = false
				continue
			}
			label := c[0] + "//" + c[1] + " under " + sname
			sameStrings(t, "semi "+label, semi, wantSemi)
			sameStrings(t, "ancestor "+label, anc, wantAnc)
			sameStrings(t, "parent "+label, par, wantPar)
			sameStrings(t, "child "+label, child, wantChild)
		}
	}
}

func nodeSet(t *testing.T, s scheme.Scheme, ids []scheme.ID) []string {
	t.Helper()
	out := make([]string, len(ids))
	for i, id := range ids {
		n, ok := s.NodeOf(id)
		if !ok {
			t.Fatalf("unresolvable id %s", id)
		}
		out[i] = n.Path()
	}
	return out
}

func sameStrings(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %s, want %s", label, i, got[i], want[i])
		}
	}
}

// TestDispatchPerScheme pins, for every registered scheme, which kernel
// family the semi-join dispatchers give it, and that what they return is the
// truth derived from NaiveJoin (every pair by IsAncestor, the child edges
// among them by the tree's own parent pointers) — so a scheme moved to the
// other family, as nestedint was to merge, cannot change an answer.
func TestDispatchPerScheme(t *testing.T) {
	families := map[string]string{
		"ruid": "climbing", "uid": "climbing",
		"nestedint": "merge+depth", "ancestry": "merge+depth",
		"prepost": "merge", "limoon": "merge",
	}
	doc := xmltree.Recursive(2, 5)
	for _, name := range scheme.Names() {
		reg, _ := scheme.Lookup(name)
		s, err := reg.Build(doc)
		if err != nil {
			t.Fatal(err)
		}
		family, known := families[name]
		if got := index.FamilyName(s); !known || got != family {
			t.Errorf("%s: given the %q kernels, want %q", name, got, family)
		}
		if got, want := index.CanChildStep(s), family != "merge"; got != want {
			t.Errorf("%s: CanChildStep = %v, want %v", name, got, want)
		}
		ix := index.Build(doc.DocumentElement(), s)
		for _, c := range joinCases() {
			ancs, descs := ix.IDs(c[0]), ix.IDs(c[1])
			// keep filters ids down to those some pair selects: the pair's
			// ancestor or descendant side, over all pairs or child edges only.
			keep := func(ids []scheme.ID, descSide, childOnly bool) []scheme.ID {
				hit := map[string]bool{}
				for _, p := range index.NaiveJoin(s, ancs, descs) {
					a, _ := s.NodeOf(p.Ancestor)
					d, _ := s.NodeOf(p.Descendant)
					if childOnly && d.Parent != a {
						continue
					}
					if descSide {
						hit[string(p.Descendant.Key())] = true
					} else {
						hit[string(p.Ancestor.Key())] = true
					}
				}
				var out []scheme.ID
				for _, id := range ids {
					if hit[string(id.Key())] {
						out = append(out, id)
					}
				}
				return out
			}
			label := name + " " + c[0] + "/" + c[1]
			sameIDSlices(t, "SemiJoinDescendants "+label, index.SemiJoinDescendants(s, ancs, descs), keep(descs, true, false))
			sameIDSlices(t, "SemiJoinAncestors "+label, index.SemiJoinAncestors(s, ancs, descs), keep(ancs, false, false))
			children, ok := index.SemiJoinChildren(s, ancs, descs)
			parents, ok2 := index.SemiJoinParents(s, ancs, descs)
			if ok != (family != "merge") || ok2 != ok {
				t.Fatalf("%s: child-edge kernels available = %v/%v", label, ok, ok2)
			}
			if ok {
				sameIDSlices(t, "SemiJoinChildren "+label, children, keep(descs, true, true))
				sameIDSlices(t, "SemiJoinParents "+label, parents, keep(ancs, false, true))
			}
		}
	}
}
