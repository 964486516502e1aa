package twig_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

func setup(t *testing.T, doc *xmltree.Node) (*core.Numbering, *index.NameIndex) {
	t.Helper()
	n, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{
		MaxAreaNodes: 20, AdjustFanout: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return n, index.Build(doc.DocumentElement(), n)
}

// match runs MatchIDsWith, which answers for every compiled pattern, and
// requires Match in count shape to count what it returns and keep none of
// it.
func match(t *testing.T, p *twig.Node, ix *index.NameIndex) []core.ID {
	t.Helper()
	e := exec.Default()
	ids, ok := twig.MatchIDsWith(p, ix, e)
	if !ok {
		t.Fatalf("MatchIDsWith(%s): no output node", p)
	}
	if kept, n, _ := twig.Match(p, ix, e, nil, true); n != len(ids) || kept.Len() != 0 {
		t.Fatalf("Match(%s) in count shape: %d counted, %d kept; %d matched", p, n, kept.Len(), len(ids))
	}
	return ids
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
	n, ix := setup(t, doc)
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
	_, ix := setup(t, doc)
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
	_, ix := setup(t, xmltree.Recursive(2, 4))
	p := &twig.Node{Name: "section", Children: []*twig.Node{{Name: "title", Edge: twig.Child}}}
	if ids, ok := twig.MatchIDsWith(p, ix, exec.Default()); ok {
		t.Fatalf("MatchIDsWith without an output node = %d ids, ok", len(ids))
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
	chain, err := twig.Compile("//a//b//c")
	if err != nil {
		t.Fatal(err)
	}
	got := match(t, chain, ix)
	if len(got) != 1 {
		t.Fatalf("//a//b//c = %d results, want 1", len(got))
	}
	node, _ := rn.NodeOfID(got[0])
	if node.Parent.Name != "b" || node.Parent.Parent.Name != "a" {
		t.Fatalf("wrong c matched: %s", node.Path())
	}
}
