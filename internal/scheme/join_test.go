package scheme_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/ancestry"
	"repro/internal/core"
	"repro/internal/nestedint"
	"repro/internal/prepost"
	"repro/internal/scheme"
	"repro/internal/uid"
	"repro/internal/xmltree"
)

func buildSchemes(t *testing.T, doc *xmltree.Node) map[string]scheme.Scheme {
	t.Helper()
	rn, err := core.Build(doc, core.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 16, AdjustFanout: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	un, err := uid.Build(doc, uid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pn, err := prepost.Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]scheme.Scheme{"ruid": scheme.RUID{Num: rn}, "uid": un, "prepost": pn}
}

// canon renders a pair list order-independently for comparison.
func canon(pairs []scheme.Pair) string {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = string(p.Ancestor.Key()) + "|" + string(p.Descendant.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// truthPairs is the pair set of a//d read off the pointer tree, labeled by s:
// every element named d with each of its proper ancestors named a.
func truthPairs(s scheme.Scheme, root *xmltree.Node, a, d string) []scheme.Pair {
	var out []scheme.Pair
	for _, dn := range root.Elements() {
		if dn.Name != d {
			continue
		}
		did, _ := s.IDOf(dn)
		for p := dn.Parent; p != nil && p.Kind == xmltree.Element; p = p.Parent {
			if p.Name == a {
				aid, _ := s.IDOf(p)
				out = append(out, scheme.Pair{Ancestor: aid, Descendant: did})
			}
		}
	}
	return out
}

// TestJoinStrategiesAgree: every join strategy produces the pair set the
// pointer tree gives, for every scheme, on several name combinations of a
// recursive document (where section//section self-joins are the hard case).
// The upward join needs a computed parent, so prepost runs the merge join
// only.
func TestJoinStrategiesAgree(t *testing.T) {
	doc := xmltree.Recursive(2, 6)
	root := doc.DocumentElement()
	for name, s := range buildSchemes(t, doc) {
		lists := scheme.IDsByName(root, s)
		for _, c := range joinCases() {
			ancs, descs := lists[c[0]], lists[c[1]]
			want := canon(truthPairs(s, root, c[0], c[1]))
			joins := map[string]func() []scheme.Pair{
				"merge": func() []scheme.Pair { return scheme.MergeJoin(s, ancs, descs) },
				"naive": func() []scheme.Pair { return scheme.NaiveJoin(s, ancs, descs) },
			}
			if name != "prepost" {
				joins["upward"] = func() []scheme.Pair { return scheme.UpwardJoin(s, ancs, descs) }
			}
			for jname, join := range joins {
				if got := join(); canon(got) != want {
					t.Fatalf("%s: %s join on %v: %d pairs, differs from the pointer tree",
						name, jname, c, len(got))
				}
			}
		}
	}
}

// comparisonSchemes builds the schemes the merge kernel is aimed at: one
// UID-family scheme with Depth (nestedint, doubles as the oracle via the
// Parent-climbing kernel) and the read-only compact ancestry labels.
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

func joinCases() [][2]string {
	return [][2]string{
		{"section", "title"},
		{"section", "para"},
		{"section", "section"},
		{"book", "title"},
		{"title", "para"},
	}
}

// TestMergeSemiJoinsAgreeWithClimbing: on documents where both kernels run
// (nestedint computes parents AND compares), the comparison-only semi-join
// must reproduce the Parent-climbing one exactly.
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
		lists := scheme.IDsByName(doc.DocumentElement(), nn)
		for _, c := range joinCases() {
			ancs, descs := lists[c[0]], lists[c[1]]
			sameIDSlices(t, "MergeSemiJoin "+dname+"/"+c[0]+"//"+c[1],
				scheme.MergeSemiJoin(nn, ancs, descs),
				scheme.UpwardSemiJoin(nn, ancs, descs))
		}
	}
}

// TestMergeKernelsAcrossSchemes: the comparison-only semi-join must produce
// identical result node sets under every scheme that can run it — results
// are scheme-independent node sets.
func TestMergeKernelsAcrossSchemes(t *testing.T) {
	doc := xmltree.Recursive(3, 5)
	schemes := comparisonSchemes(t, doc)
	for _, c := range joinCases() {
		var want []string
		first := true
		for sname, s := range schemes {
			lists := scheme.IDsByName(doc.DocumentElement(), s)
			got := nodeSet(t, s, scheme.MergeSemiJoin(s, lists[c[0]], lists[c[1]]))
			if first {
				want, first = got, false
				continue
			}
			sameStrings(t, "semi "+c[0]+"//"+c[1]+" under "+sname, got, want)
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
