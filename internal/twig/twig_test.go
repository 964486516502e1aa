package twig_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func setup(t *testing.T, doc *xmltree.Node) (*core.Numbering, *index.NameIndex, *xpath.Engine) {
	t.Helper()
	n, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{
		MaxAreaNodes: 20, AdjustFanout: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return n, index.Build(doc.DocumentElement(), n), xpath.NewEngine(doc, xpath.PointerNavigator{})
}

// match runs MatchIDs, which answers for every compiled pattern.
func match(t *testing.T, p *twig.Node, ix *index.NameIndex) []core.ID {
	t.Helper()
	ids, ok := twig.MatchIDs(p, ix)
	if !ok {
		t.Fatalf("MatchIDs(%s): no output node", p)
	}
	return ids
}

// TestTwigMatchesXPath: for twig-compilable queries, MatchIDs returns
// exactly the XPath engine's result set.
func TestTwigMatchesXPath(t *testing.T) {
	docs := map[string]*xmltree.Node{
		"xmark":     xmltree.XMark(2, 21),
		"recursive": xmltree.Recursive(2, 6),
		"random":    xmltree.Random(xmltree.RandomConfig{Nodes: 400, MaxFanout: 5, Seed: 77}),
	}
	queries := map[string][]string{
		"xmark": {
			"//item[name]//text",
			"//person[profile]/name",
			"//open_auction[bidder][itemref]/initial",
			"/site/regions//item[description//text]/name",
			"//item[description/parlist/listitem]",
		},
		"recursive": {
			"//section[title][para]//section/title",
			"/book/section[section/section]//para",
			"//section[section[section[title]]]",
		},
		"random": {
			"//e1[e2]//e3",
			"//e4[e5][e6]",
			"/e0//e7[e8]",
		},
	}
	for dn, doc := range docs {
		n, ix, ref := setup(t, doc)
		for _, q := range queries[dn] {
			p, err := twig.Compile(q)
			if err != nil {
				t.Fatalf("%s: Compile(%q): %v", dn, q, err)
			}
			got := match(t, p, ix)
			want, err := ref.Query(q)
			if err != nil {
				t.Fatalf("%s: ref Query(%q): %v", dn, q, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: MatchIDs(%q) = %d nodes, xpath %d (pattern %s)",
					dn, q, len(got), len(want), p)
			}
			for i := range got {
				node, ok := n.NodeOfID(got[i])
				if !ok || node != want[i] {
					t.Fatalf("%s: MatchIDs(%q): result %d differs", dn, q, i)
				}
			}
		}
	}
}

// TestTwigCompileRejects: queries outside the fragment are refused, not
// mis-evaluated.
func TestTwigCompileRejects(t *testing.T) {
	bad := []string{
		"a/b",                // relative
		"//a[1]",             // positional predicate
		"//a[@x]",            // attribute predicate
		"//a/..",             // parent step
		"//*",                // wildcard
		"//a[b = 'v']",       // comparison
		"//a[not(b)]",        // function
		"//a//",              // dangling //
		"//a[/b]",            // absolute predicate
		"//a | //b",          // union (Parse fails on the bar)
		"//a/text()",         // non-element test
		"//a[b]/ancestor::c", // reverse axis
	}
	for _, q := range bad {
		if _, err := twig.Compile(q); err == nil {
			t.Errorf("Compile(%q) accepted", q)
		}
	}
}

// TestTwigString renders a pattern round-trippably enough for debugging.
func TestTwigString(t *testing.T) {
	p, err := twig.Compile("//a[b][c//d]/e")
	if err != nil {
		t.Fatal(err)
	}
	got := p.String()
	if got != "//a[b][c//d]/e*" {
		t.Fatalf("String() = %q", got)
	}
}

// TestTwigAnchoring: '/a[...]' matches only the document root element.
func TestTwigAnchoring(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><a><b/></a><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	n, ix, _ := setup(t, doc)
	p, err := twig.Compile("/a[b]")
	if err != nil {
		t.Fatal(err)
	}
	got := match(t, p, ix)
	if len(got) != 1 {
		t.Fatalf("anchored match = %d results, want 1", len(got))
	}
	node, _ := n.NodeOfID(got[0])
	if node != doc.DocumentElement() {
		t.Fatalf("anchored match is not the root: %s", node.Path())
	}
	p2, _ := twig.Compile("//a[b]")
	if got := match(t, p2, ix); len(got) != 2 {
		t.Fatalf("unanchored match = %d results, want 2", len(got))
	}
}

// TestTwigEmptyResult: a pattern with an unsatisfiable branch matches
// nothing.
func TestTwigEmptyResult(t *testing.T) {
	doc := xmltree.Recursive(2, 4)
	_, ix, _ := setup(t, doc)
	p, err := twig.Compile("//section[nonexistent]/title")
	if err != nil {
		t.Fatal(err)
	}
	if got := match(t, p, ix); len(got) != 0 {
		t.Fatalf("expected empty result, got %d", len(got))
	}
}

// TestTwigNoOutputNode: a hand-built pattern without an output node is
// refused, not answered with an empty set.
func TestTwigNoOutputNode(t *testing.T) {
	_, ix, _ := setup(t, xmltree.Recursive(2, 4))
	p := &twig.Node{Name: "section", Children: []*twig.Node{{Name: "title", Edge: twig.Child}}}
	if ids, ok := twig.MatchIDs(p, ix); ok {
		t.Fatalf("MatchIDs without an output node = %d ids, ok", len(ids))
	}
}
