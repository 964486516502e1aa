package dataguide_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataguide"
	"repro/internal/xmltree"
)

func TestGuideBasics(t *testing.T) {
	doc, err := xmltree.ParseString(
		`<a><b><c/><c/></b><b><d/></b><e><c/></e></a>`)
	if err != nil {
		t.Fatal(err)
	}
	g := dataguide.Build(doc)
	// Distinct label paths: /a, /a/b, /a/b/c, /a/b/d, /a/e, /a/e/c.
	if g.Size() != 6 {
		t.Fatalf("Size = %d, want 6", g.Size())
	}
	cases := []struct {
		path []string
		want int
	}{
		{[]string{"a"}, 1},
		{[]string{"a", "b"}, 2},
		{[]string{"a", "b", "c"}, 2},
		{[]string{"a", "b", "d"}, 1},
		{[]string{"a", "e", "c"}, 1},
		{[]string{"a", "x"}, 0},
		{[]string{"b"}, 0},
		{nil, 0},
	}
	for _, c := range cases {
		if got := g.Count(c.path...); got != c.want {
			t.Errorf("Count(%v) = %d, want %d", c.path, got, c.want)
		}
	}
	if !g.HasChain("a", "c") || !g.HasChain("b", "c") || !g.HasChain("e", "c") {
		t.Errorf("existing chains rejected")
	}
	if g.HasChain("c", "b") || g.HasChain("d", "c") || g.HasChain("x") {
		t.Errorf("impossible chains accepted")
	}
	paths := g.Paths()
	if len(paths) != 6 || paths[0] != "/a" {
		t.Fatalf("Paths() = %v", paths)
	}
	if !strings.Contains(g.String(), "b (2)") {
		t.Fatalf("String() = %s", g.String())
	}
}

// TestGuideMatchesBruteForce: counts and chain existence agree with direct
// document scans on random documents.
func TestGuideMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		doc := xmltree.Random(xmltree.RandomConfig{
			Nodes: 300, MaxFanout: 5, Seed: int64(trial),
		})
		g := dataguide.Build(doc)
		root := doc.DocumentElement()

		// Count: pick random real paths and some fakes.
		for i := 0; i < 20; i++ {
			var path []string
			n := root.Elements()[rng.Intn(len(root.Elements()))]
			for cur := n; cur != nil && cur.Kind == xmltree.Element; cur = cur.Parent {
				path = append([]string{cur.Name}, path...)
			}
			want := 0
			root.Walk(func(x *xmltree.Node) bool {
				if x.Kind != xmltree.Element {
					return true
				}
				var p []string
				for cur := x; cur != nil && cur.Kind == xmltree.Element; cur = cur.Parent {
					p = append([]string{cur.Name}, p...)
				}
				if len(p) == len(path) {
					same := true
					for j := range p {
						if p[j] != path[j] {
							same = false
							break
						}
					}
					if same {
						want++
					}
				}
				return true
			})
			if got := g.Count(path...); got != want {
				t.Fatalf("trial %d: Count(%v) = %d, want %d", trial, path, got, want)
			}
		}

		// HasChain vs brute force on random name pairs/triples.
		names := []string{"e0", "e1", "e2", "e5", "e9", "e15", "nonexistent"}
		for i := 0; i < 30; i++ {
			k := 2 + rng.Intn(2)
			chain := make([]string, k)
			for j := range chain {
				chain[j] = names[rng.Intn(len(names))]
			}
			want := false
			root.Walk(func(x *xmltree.Node) bool {
				if x.Kind != xmltree.Element || x.Name != chain[len(chain)-1] {
					return true
				}
				// Walk up checking the chain in reverse.
				idx := len(chain) - 2
				for cur := x.Parent; cur != nil && cur.Kind == xmltree.Element && idx >= 0; cur = cur.Parent {
					if cur.Name == chain[idx] {
						idx--
					}
				}
				if idx < 0 {
					want = true
				}
				return true
			})
			if got := g.HasChain(chain...); got != want {
				t.Fatalf("trial %d: HasChain(%v) = %v, want %v", trial, chain, got, want)
			}
		}
	}
}

// TestGuideCompression: on regular documents the guide is much smaller
// than the document.
func TestGuideCompression(t *testing.T) {
	doc := xmltree.DBLP(1000, 3)
	g := dataguide.Build(doc)
	nodes := len(doc.DocumentElement().Elements())
	if g.Size() >= nodes/100 {
		t.Fatalf("guide has %d paths for %d elements: no compression", g.Size(), nodes)
	}
	if g.Count("dblp", "article") != 1000 {
		t.Fatalf("Count(dblp/article) = %d", g.Count("dblp", "article"))
	}
}

// TestGuideBatchFold: a batch fold over N updates produces exactly the
// guide that Build produces over the updated tree, the base guide is left
// untouched, and an inconsistent update breaks the whole batch (nil
// result, the caller's cue to rebuild).
func TestGuideBatchFold(t *testing.T) {
	doc, err := xmltree.ParseString(
		`<a><b><c/><c/></b><b><d/></b><e><c/></e></a>`)
	if err != nil {
		t.Fatal(err)
	}
	base := dataguide.Build(doc)
	basePaths := strings.Join(base.Paths(), ",")

	sub1, _ := xmltree.ParseString(`<f><c/></f>`)
	sub2, _ := xmltree.ParseString(`<c/>`)
	updates := []struct {
		prefix []string
		sub    *xmltree.Node
		delta  int
	}{
		{[]string{"a", "b"}, sub1.DocumentElement(), +1}, // new paths a/b/f, a/b/f/c
		{[]string{"a", "e"}, sub2.DocumentElement(), -1}, // prunes a/e/c
		{[]string{"a"}, sub2.DocumentElement(), +1},      // new path a/c
	}

	updated, err := xmltree.ParseString(
		`<a><b><c/><c/><f><c/></f></b><b><d/></b><e/><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := dataguide.Build(updated)
	fold := base.Begin()
	for _, u := range updates {
		if !fold.Update(u.prefix, u.sub, u.delta) {
			t.Fatal("Batch.Update rejected a consistent update")
		}
	}
	folded := fold.Guide()
	if folded == nil {
		t.Fatal("Batch.Guide returned nil for a consistent batch")
	}
	if got, want := strings.Join(folded.Paths(), ","), strings.Join(rebuilt.Paths(), ","); got != want {
		t.Fatalf("folded paths %q != rebuilt paths %q", got, want)
	}
	for _, p := range [][]string{{"a", "b", "f", "c"}, {"a", "c"}, {"a", "e", "c"}, {"a", "b", "c"}} {
		if folded.Count(p...) != rebuilt.Count(p...) {
			t.Fatalf("Count(%v): folded %d != rebuilt %d", p, folded.Count(p...), rebuilt.Count(p...))
		}
	}
	if folded.Size() != rebuilt.Size() {
		t.Fatalf("Size: folded %d != rebuilt %d", folded.Size(), rebuilt.Size())
	}
	if got := strings.Join(base.Paths(), ","); got != basePaths {
		t.Fatalf("batch fold mutated the base guide: %q != %q", got, basePaths)
	}

	// Removing a path the guide never recorded breaks the batch as a whole.
	bad := base.Begin()
	if !bad.Update([]string{"a"}, sub2.DocumentElement(), +1) {
		t.Fatal("setup update rejected")
	}
	if bad.Update([]string{"a", "b"}, xmltree.NewElement("nope"), -1) {
		t.Fatal("inconsistent removal accepted")
	}
	if bad.Update([]string{"a"}, sub2.DocumentElement(), +1) {
		t.Fatal("broken batch accepted a further update")
	}
	if bad.Guide() != nil {
		t.Fatal("broken batch still produced a guide")
	}
}

// TestGuidePinnedAcrossFoldedUpdates chains 200 batches, each folded over the
// guide the one before it produced — the way epochs publish — while the
// first and a middle guide stay pinned. A batch copies only the trie nodes it
// writes and shares the rest with its base, so a write that reached a shared
// node would show in a pinned guide: both must still read exactly as they did
// (counts, paths and the paths later batches pruned), and the last guide must
// equal one built from scratch over the mirrored tree.
func TestGuidePinnedAcrossFoldedUpdates(t *testing.T) {
	doc := xmltree.XMark(3, 9)
	g := dataguide.Build(doc)
	type pin struct {
		g    *dataguide.Guide
		text string
		size int
	}
	pins := []pin{{g, g.String(), g.Size()}}

	rng := rand.New(rand.NewSource(4))
	elementPath := func(x *xmltree.Node) []string {
		var names []string
		for ; x.Kind == xmltree.Element; x = x.Parent {
			names = append(names, x.Name)
		}
		slices.Reverse(names)
		return names
	}
	for i := 0; i < 200; i++ {
		b := g.Begin()
		for u := 0; u <= i%2; u++ { // every other batch folds two updates
			els := doc.DocumentElement().Elements()
			parent := els[rng.Intn(len(els))]
			if kids := parent.ChildElements(""); len(kids) > 0 && rng.Intn(2) == 0 {
				sub := kids[rng.Intn(len(kids))]
				if !b.Update(elementPath(parent), sub, -1) {
					t.Fatalf("batch %d: removal of %s rejected", i, sub.Path())
				}
				sub.Detach()
				continue
			}
			sub, err := xmltree.ParseFragment(fmt.Sprintf("<novel%d><deep><er/></deep>text</novel%d>", i%5, i%5))
			if err != nil {
				t.Fatal(err)
			}
			if !b.Update(elementPath(parent), sub, +1) {
				t.Fatalf("batch %d: insert under %s rejected", i, parent.Path())
			}
			parent.AppendChild(sub)
		}
		if g = b.Guide(); g == nil {
			t.Fatalf("batch %d broke", i)
		}
		if i == 100 {
			pins = append(pins, pin{g, g.String(), g.Size()})
		}
	}
	rebuilt := dataguide.Build(doc)
	if g.String() != rebuilt.String() || g.Size() != rebuilt.Size() {
		t.Fatalf("after 200 folded batches the guide (%d paths) differs from one built over the tree (%d paths)", g.Size(), rebuilt.Size())
	}
	for i, p := range pins {
		if p.g.String() != p.text || p.g.Size() != p.size {
			t.Fatalf("pinned guide %d changed under later batches: %d paths, had %d", i, p.g.Size(), p.size)
		}
	}
	if pins[0].text == pins[1].text || pins[1].text == g.String() {
		t.Fatal("the pinned guides do not differ: the updates did not change the summary")
	}
}
