package xpath_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nestedint"
	"repro/internal/prepost"
	"repro/internal/scheme"
	"repro/internal/uid"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const bookSrc = `<library>
  <book id="b1" year="1998">
    <title>Structures</title>
    <author>Ann</author>
    <author>Bob</author>
    <price>30</price>
  </book>
  <book id="b2" year="2001">
    <title>Numbering</title>
    <author>Ann</author>
    <price>45</price>
    <review>good</review>
  </book>
  <journal id="j1">
    <title>Trees</title>
    <issue><article><title>ruid</title></article></issue>
  </journal>
</library>`

func bookDoc(t *testing.T) *xmltree.Node {
	t.Helper()
	doc, err := xmltree.ParseString(bookSrc)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func pointerEngine(t *testing.T, doc *xmltree.Node) *xpath.Engine {
	t.Helper()
	return xpath.NewEngine(doc, xpath.PointerNavigator{})
}

func ruidEngine(t *testing.T, doc *xmltree.Node) *xpath.Engine {
	t.Helper()
	n, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 6, AdjustFanout: true}})
	if err != nil {
		t.Fatal(err)
	}
	return xpath.NewEngine(doc, xpath.SchemeNavigator{S: n})
}

// texts renders a node-set compactly for assertions.
func texts(nodes []*xmltree.Node) string {
	parts := make([]string, 0, len(nodes))
	for _, n := range nodes {
		switch n.Kind {
		case xmltree.Element:
			id, ok := n.Attr("id")
			if ok {
				parts = append(parts, n.Name+"#"+id)
			} else {
				parts = append(parts, n.Name)
			}
		case xmltree.Attribute:
			parts = append(parts, "@"+n.Name+"="+n.Data)
		case xmltree.Text:
			parts = append(parts, "'"+n.Data+"'")
		default:
			parts = append(parts, n.Kind.String())
		}
	}
	return strings.Join(parts, " ")
}

func TestQueriesPointer(t *testing.T) {
	doc := bookDoc(t)
	e := pointerEngine(t, doc)
	cases := []struct{ q, want string }{
		{"/library/book", "book#b1 book#b2"},
		{"/library/*", "book#b1 book#b2 journal#j1"},
		{"//title", "title title title title"},
		{"/library/book[1]/author", "author author"},
		{"/library/book[last()]", "book#b2"},
		{"/library/book[author='Bob']", "book#b1"},
		{"/library/book[price > 40]", "book#b2"},
		{"/library/book[@year='2001']/title", "title"},
		{"//book/@id", "@id=b1 @id=b2"},
		{"//article/ancestor::*", "library journal#j1 issue"},
		{"/library/book[2]/preceding-sibling::*", "book#b1"},
		{"/library/book[1]/following-sibling::*", "book#b2 journal#j1"},
		{"//review/preceding::author", "author author author"},
		{"//book[review]", "book#b2"},
		{"//book[not(review)]", "book#b1"},
		{"//book[count(author) = 2]", "book#b1"},
		{"//title[contains(., 'ruid')]", "title"},
		{"//price/text()", "'30' '45'"},
		{"/library/journal/issue/article/title/..", "article"},
		{"//article/../..", "journal#j1"},
		// The paper's element_1/*/element_2 pattern (§3.5): titles exactly
		// two levels below the library.
		{"/library/*/*", "title author author price title author price review title issue"},
		// A bare number selects by position: nothing at 0, past the end or at
		// a fraction, and positions restart after each predicate.
		{"/library/book[0]", ""},
		{"/library/book[3]", ""},
		{"/library/book[1.5]", ""},
		{"/library/book[2.0]", "book#b2"},
		{"/library/*[title][3]", "journal#j1"},
		{"/library/book[price > 40][1]", "book#b2"},
		{"/library/book[2][1]", "book#b2"},
		{"/library/book[1][2]", ""},
		{"//author[2]", "author"}, // per context node: only b1 has a second author
		{"//title/ancestor::*[1]", "book#b1 book#b2 journal#j1 article"},
	}
	for _, c := range cases {
		got, err := e.Query(c.q)
		if err != nil {
			t.Errorf("Query(%q): %v", c.q, err)
			continue
		}
		if texts(got) != c.want {
			t.Errorf("Query(%q) = %q, want %q", c.q, texts(got), c.want)
		}
	}
}

// TestEnginesAgreeBooks cross-checks the scheme-driven engine against the
// pointer engine on the fixed document.
func TestEnginesAgreeBooks(t *testing.T) {
	doc := bookDoc(t)
	ep := pointerEngine(t, doc)
	er := ruidEngine(t, doc)
	queries := []string{
		"/library/book", "//title", "//book/@id", "/library/book[2]/author[1]",
		"//article/ancestor::*", "//review/preceding::*", "//author/following::*",
		"/library/book[price > 40]/title", "//*[@id]", "//book[author='Ann']",
		"/library/journal//title", "//issue/..", "//title/parent::*",
	}
	for _, q := range queries {
		a, err := ep.Query(q)
		if err != nil {
			t.Fatalf("pointer Query(%q): %v", q, err)
		}
		b, err := er.Query(q)
		if err != nil {
			t.Fatalf("ruid Query(%q): %v", q, err)
		}
		if texts(a) != texts(b) {
			t.Errorf("Query(%q): pointer %q, ruid %q", q, texts(a), texts(b))
		}
	}
}

// agreeDocs and agreeQueries are the differential workload: generated
// corpora and, per corpus, the paths every navigator must answer alike.
// Beside the plain shapes each table holds the positional ones an early exit
// can get wrong: t[k] first, middle, last, out of range and fractional,
// [p][k] and [k][p], last() and position(), positions on reverse axes and
// under merged contexts, and a union of two of them.
func agreeDocs() map[string]*xmltree.Node {
	return map[string]*xmltree.Node{
		"dblp":        xmltree.DBLP(60, 3),
		"xmark":       xmltree.XMark(1, 4),
		"shakespeare": xmltree.Shakespeare(2, 3, 4),
		"random":      xmltree.Random(xmltree.RandomConfig{Nodes: 300, MaxFanout: 6, Seed: 8, TextLeaf: true}),
	}
}

var agreeQueries = map[string][]string{
	"dblp": {
		"/dblp/article", "//author", "/dblp/article[year > 1995]/title",
		"//article[count(author) > 1]", "//title/..", "/dblp/article[3]",
		"//author[1]", "//article/author/following-sibling::*",
		"/dblp/article[1]", "/dblp/article[30]/title", "/dblp/article[60]", "/dblp/article[61]",
		"/dblp/article[2.5]", "/dblp/article[0]", "/dblp/article[year > 1995][2]",
		"/dblp/article[2][year > 1995]", "/dblp/article[last()]/author[last()]",
		"/dblp/article[position() < 3]/title", "//author[2]/preceding-sibling::*[1]",
		"//year/ancestor::*[1]", "//article[3]/author[1] | //article[59]/title",
	},
	"xmark": {
		"//item/name", "/site/regions/*/item", "//person[profile]",
		"//open_auction/bidder", "//item[contains(name, '3')]",
		"//bidder/preceding-sibling::*", "//interest/..", "//parlist//text",
		"/site/regions/europe/item[2]/name", "/site/regions/*/item[1]/description/parlist/listitem[1]/text",
		"/site/people/person[7]/ancestor::*", "/site/open_auctions/open_auction[4]/bidder[1]/increase",
		"//parlist/listitem[2]", "//parlist/listitem[2][text]", "//listitem[text][2]",
		"//bidder[last()]/increase", "//bidder[position() < 3]", "//increase/ancestor::*[2]",
		"//bidder[2]/preceding-sibling::*[2]", "//listitem/preceding::item[1]/name",
		"//item[3]/following::item[1]", "//person[2]/@id | //item[4]/@id",
		"/site/regions/asia/item[9999]", "//bidder[1.5]",
	},
	"shakespeare": {
		"//SPEECH/SPEAKER", "/PLAY/ACT[2]/SCENE[1]//LINE",
		"//SPEECH[SPEAKER='PLAYER1']", "//LINE[2]", "//SCENE/TITLE",
		"//SPEECH[last()]", "//ACT/following::SPEAKER",
		"/PLAY/ACT[1]/SCENE[3]/SPEECH[4]/LINE[1]", "//SCENE[2]/SPEECH[2]/preceding-sibling::*[2]",
		"//LINE[last()]/ancestor::SCENE[1]/TITLE", "//SPEECH[LINE][3]", "//SPEECH[3][LINE]",
		"//SCENE[1]/SPEECH[position() < 3] | //ACT[2]/TITLE", "//LINE/preceding::SPEAKER[1]",
	},
	"random": {
		"//e1", "//*[e2]", "//e3/ancestor::*", "//e4/preceding-sibling::*",
		"//e5/following::e6", "//*[count(*) > 2]", "//e7/..", "//text()",
		"//*[1]", "//*[2]/*[last()]", "//*[3]/ancestor::*[1]", "//*/preceding-sibling::*[2]",
		"//*[*][2]", "//*[2][*]", "//*[position() < 3]/text()", "//*[7]",
		"//e1/following::*[3] | //e2/preceding::*[3]", "//text()/ancestor::*[3]",
	},
}

// agreeNavigators builds every scheme navigator over doc: ruid on the
// in-place walks, uid and nestedint on boxed identifier lists.
func agreeNavigators(t testing.TB, doc *xmltree.Node) []xpath.Navigator {
	rn, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 20, AdjustFanout: true}})
	if err != nil {
		t.Fatal(err)
	}
	un, err := uid.Build(doc, uid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nn, err := nestedint.Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	return []xpath.Navigator{xpath.SchemeNavigator{S: rn}, scheme.Navigator{S: un}, scheme.Navigator{S: nn}}
}

// sameNodes reports the first position at which two node sequences differ,
// or -1 when they are the same nodes in the same order.
func sameNodes(a, b []*xmltree.Node) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestEnginesAgreeGenerated cross-checks the three scheme navigators
// against the pointer engine over generated corpora and a query workload.
func TestEnginesAgreeGenerated(t *testing.T) {
	for name, doc := range agreeDocs() {
		ep := xpath.NewEngine(doc, xpath.PointerNavigator{})
		for _, nav := range agreeNavigators(t, doc) {
			es := xpath.NewEngine(doc, nav)
			for _, q := range agreeQueries[name] {
				a, err := ep.Query(q)
				if err != nil {
					t.Fatalf("%s: pointer Query(%q): %v", name, q, err)
				}
				b, err := es.Query(q)
				if err != nil {
					t.Fatalf("%s/%s: Query(%q): %v", name, nav.Name(), q, err)
				}
				if i := sameNodes(a, b); i >= 0 {
					t.Fatalf("%s/%s: Query(%q): pointer %d nodes, scheme %d, first difference at %d",
						name, nav.Name(), q, len(a), len(b), i)
				}
			}
		}
	}
}

// TestSharedEngineConcurrent runs forward, reverse-axis and merged-context
// queries from eight goroutines over one shared engine: an engine is one
// epoch's, and everything an evaluation mutates must be its own.
func TestSharedEngineConcurrent(t *testing.T) {
	doc := agreeDocs()["xmark"]
	queries := agreeQueries["xmark"]
	ep := xpath.NewEngine(doc, xpath.PointerNavigator{})
	want := make([][]*xmltree.Node, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = ep.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	shared := xpath.NewEngine(doc, agreeNavigators(t, doc)[0])
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range queries {
					i = (i + g) % len(queries)
					got, err := shared.Query(queries[i])
					if err != nil {
						t.Error(err)
						return
					}
					if d := sameNodes(want[i], got); d >= 0 {
						t.Errorf("goroutine %d: Query(%q) differs from the oracle at %d", g, queries[i], d)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzEnginesAgree: whatever ParseUnion accepts evaluates to the same node
// sequence on the pointer navigator and on the ruid (in-place) and uid
// (boxed) scheme navigators over one small fixed document. The seed corpus
// is the differential workload above and positionalSeeds.
func FuzzEnginesAgree(f *testing.F) {
	for _, qs := range agreeQueries {
		for _, q := range qs {
			f.Add(q)
		}
	}
	for _, q := range positionalSeeds {
		f.Add(q)
	}
	doc := xmltree.XMark(1, 4)
	navs := agreeNavigators(f, doc)[:2]
	ep := xpath.NewEngine(doc, xpath.PointerNavigator{})
	f.Fuzz(func(t *testing.T, src string) {
		paths, err := xpath.ParseUnion(src)
		if err != nil {
			return
		}
		want := ep.Eval(paths)
		for _, nav := range navs {
			if i := sameNodes(want, xpath.NewEngine(doc, nav).Eval(paths)); i >= 0 {
				t.Fatalf("%s: %q differs from the pointer navigator at node %d", nav.Name(), src, i)
			}
		}
	})
}

// positionalSeeds are child steps a slot read answers on XMark(1, 4) — under
// parents whose children are elements of one name (regions' items, people,
// open_auctions), behind an id attribute, past the last child, at 2^53 — and
// ones it must leave to the walk: an item's or an auction's mixed children,
// text under a name, node() over any of them.
var positionalSeeds = []string{
	"/site/regions/europe/item[4]/name", "/site/regions/*[2]/item[1]/description/parlist/listitem[1]/text",
	"/site/people/person[10]/*[2]", "/site/people/person[11]", "/site/people/person[9007199254740992]",
	"/site/open_auctions/open_auction[6]/bidder[1]/increase", "/site/open_auctions/open_auction[2]/node()[2]",
	"//item/name/text()[1]", "//name/node()[1]", "//person/text()[1]", "/site/people/text()[1]",
	"/site/people/node()[3]/@id", "//open_auction/*[9007199254740992]", "//regions/*/item[2]/name",
}

// TestPointerNavigatorGroundTruth holds the oracle to xmltree's own
// definitions of the axes, node by node.
func TestPointerNavigatorGroundTruth(t *testing.T) {
	collect := func(walk func(xpath.Visit) bool) []*xmltree.Node {
		var out []*xmltree.Node
		walk(func(x *xmltree.Node) bool { out = append(out, x); return true })
		return out
	}
	nav := xpath.PointerNavigator{}
	for name, doc := range agreeDocs() {
		for _, n := range doc.DocumentElement().Nodes() {
			preceding := xmltree.Preceding(n)
			slices.Reverse(preceding)
			ancestors := xmltree.Ancestors(n)
			ancestors = ancestors[:len(ancestors)-1] // the Document node is the engine's
			for _, c := range []struct {
				axis      string
				got, want []*xmltree.Node
			}{
				{"children", collect(func(f xpath.Visit) bool { return nav.Children(n, f) }), n.AppendChildren(nil)},
				{"descendants", collect(func(f xpath.Visit) bool { return nav.Descendants(n, f) }), xmltree.Descendants(n)},
				{"ancestors", collect(func(f xpath.Visit) bool { return nav.Ancestors(n, f) }), ancestors},
				{"following-siblings", collect(func(f xpath.Visit) bool { return nav.FollowingSiblings(n, f) }), xmltree.FollowingSiblings(n)},
				{"preceding-siblings", collect(func(f xpath.Visit) bool { return nav.PrecedingSiblings(n, f) }), xmltree.PrecedingSiblings(n)},
				{"following", collect(func(f xpath.Visit) bool { return nav.Following(n, f) }), xmltree.Following(n)},
				{"preceding", collect(func(f xpath.Visit) bool { return nav.Preceding(n, f) }), preceding},
			} {
				if i := sameNodes(c.want, c.got); i >= 0 {
					t.Fatalf("%s: %s of %s: %d nodes, want %d, first difference at %d", name, c.axis, n.Path(), len(c.got), len(c.want), i)
				}
			}
		}
	}
}

// TestPositionalStopsAtK: t[k] among children that are all elements of one
// name is one slot read, and elsewhere costs k candidates, not the axis — on
// every navigator, the boxed ones included — and a stop test that trips ends
// the walk with no answer.
func TestPositionalStopsAtK(t *testing.T) {
	build := func(odd bool) (*xmltree.Node, *xmltree.Node) {
		doc := xmltree.NewDocument()
		root := xmltree.NewElement("r")
		doc.AppendChild(root)
		for i := 0; i < 5000; i++ {
			c := xmltree.NewElement("c")
			c.AppendChild(xmltree.NewElement("d"))
			root.AppendChild(c)
		}
		if odd {
			root.AppendChild(xmltree.NewElement("x"))
		}
		return doc, root
	}
	paths, err := xpath.ParseUnion("/r/c[7]/d[1]")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		odd  bool
		want int
	}{
		{false, 1 + 1 + 1}, // r, the slot of the seventh c, the slot of its d
		{true, 1 + 7 + 1},  // an x among the c: r, seven c, one d
	} {
		doc, root := build(tc.odd)
		for _, nav := range append(agreeNavigators(t, doc), xpath.PointerNavigator{}) {
			nodes, visited, ok := xpath.NewEngine(doc, nav).EvalMetered(paths, nil)
			if !ok || len(nodes) != 1 || nodes[0] != root.Child(6).Child(0) {
				t.Fatalf("%s, x sibling %v: /r/c[7]/d[1] = %d nodes, ok %v", nav.Name(), tc.odd, len(nodes), ok)
			}
			if visited != tc.want {
				t.Errorf("%s, x sibling %v: visited %d candidates, want %d", nav.Name(), tc.odd, visited, tc.want)
			}
		}
	}

	doc, _ := build(false)
	all, err := xpath.ParseUnion("//d")
	if err != nil {
		t.Fatal(err)
	}
	e := xpath.NewEngine(doc, agreeNavigators(t, doc)[0])
	_, full, _ := e.EvalMetered(all, nil)
	calls := 0
	nodes, visited, ok := e.EvalMetered(all, func() bool { calls++; return calls < 3 })
	if ok || nodes != nil || visited >= full || calls != 3 {
		t.Errorf("stopped walk: ok %v, %d nodes, visited %d of %d, %d samples", ok, len(nodes), visited, full, calls)
	}
}

// TestPositionalBySlot holds the positional child step to its answer
// wherever a slot read could land elsewhere than the walk: beside a text
// sibling, behind attributes a numbering enumerates, past the last child,
// at a position no int64 sum may overflow, under *, node() and text(), and
// under a parent a delete left uniform without its bit. Every navigator —
// ruid with and without attributes numbered, the boxed ones, the pointer
// tree — gives the answer read off the tree.
func TestPositionalBySlot(t *testing.T) {
	cases := []struct {
		name, src string
		drop      int // a child of r to delete before numbering; -1 keeps all
		queries   map[string]string
	}{
		{"text sibling", `<r><c i="1"/>t<c i="2"/><c i="3"/></r>`, -1, map[string]string{
			"/r/c[2]": "c#2", "/r/node()[2]": "'t'", "/r/text()[1]": "'t'", "/r/*[3]": "c#3", "/r/c[4]": "",
		}},
		{"attributes", `<r a="1" b="2"><c i="1"/><c i="2"><d/></c><c i="3"/></r>`, -1, map[string]string{
			"/r/c[1]": "c#1", "/r/c[3]": "c#3", "/r/node()[1]": "c#1", "/r/*[2]/d[1]": "d",
			"/r/text()[1]": "", "/r/d[1]": "", "/r/c[2]/node()[1]": "d",
		}},
		{"past the end", `<r><c i="1"/><c i="2"/></r>`, -1, map[string]string{
			"/r/c[3]": "", "/r/c[9007199254740992]": "", "/r/node()[9007199254740992]": "",
			"/r/*[9007199254740992]": "", "/r/c[2]": "c#2", "/r/c[2][1]": "c#2", "/r/c[2][2]": "",
		}},
		{"uniform by a delete", `<r><c i="1"/><x/><c i="2"/><c i="3"/></r>`, 1, map[string]string{
			"/r/c[2]": "c#2", "/r/c[3]": "c#3", "/r/*[1]": "c#1", "/r/node()[3]": "c#3",
		}},
	}
	for _, tc := range cases {
		// A tree carries one numbering's stamps, so each navigator gets its
		// own copy of the document.
		parse := func() *xmltree.Node {
			doc, err := xmltree.ParseString(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if root := doc.DocumentElement(); tc.drop >= 0 {
				root.RemoveChild(tc.drop)
				if root.UniformChildren() {
					t.Fatalf("%s: a delete set the uniform bit", tc.name)
				}
			}
			return doc
		}
		type engine struct {
			name string
			e    *xpath.Engine
		}
		doc := parse()
		engines := []engine{{"pointer", xpath.NewEngine(doc, xpath.PointerNavigator{})}}
		for _, nav := range agreeNavigators(t, doc) {
			engines = append(engines, engine{nav.Name(), xpath.NewEngine(doc, nav)})
		}
		doc = parse()
		withAttrs, err := core.Build(doc, core.Options{WithAttrs: true, Partition: core.PartitionConfig{MaxAreaNodes: 2}})
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, engine{"ruid WithAttrs", xpath.NewEngine(doc, xpath.SchemeNavigator{S: withAttrs})})
		for q, want := range tc.queries {
			for _, e := range engines {
				got, err := e.e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if texts := positionalTexts(got); texts != want {
					t.Errorf("%s, %s: %s = %q, want %q", tc.name, e.name, q, texts, want)
				}
			}
		}
	}
}

// positionalTexts renders a node-set as TestPositionalBySlot states it: an
// element by name and its i attribute, a text by its data.
func positionalTexts(nodes []*xmltree.Node) string {
	parts := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if i, ok := n.Attr("i"); ok {
			parts = append(parts, n.Name+"#"+i)
		} else if n.Kind == xmltree.Text {
			parts = append(parts, "'"+n.Data+"'")
		} else {
			parts = append(parts, n.Name)
		}
	}
	return strings.Join(parts, " ")
}

// TestSchemeInterfaceSanity double-checks that prepost (a compare-only
// scheme) still satisfies scheme.Scheme but not the axis interface, which
// is the paper's structural distinction.
func TestSchemeInterfaceSanity(t *testing.T) {
	doc := bookDoc(t)
	n, err := prepost.Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	var s scheme.Scheme = n
	if _, ok := s.(scheme.AxisScheme); ok {
		t.Fatalf("prepost unexpectedly implements full axis generation")
	}
}

// TestUnionQueries checks '|' unions: dedup, document order, cross-engine
// agreement.
func TestUnionQueries(t *testing.T) {
	doc := bookDoc(t)
	ep := pointerEngine(t, doc)
	er := ruidEngine(t, doc)
	cases := []struct{ q, want string }{
		{"//book | //journal", "book#b1 book#b2 journal#j1"},
		{"//review | //book[review]", "book#b2 review"},
		{"//title | //title", "title title title title"},
		{"/library/book[1] | //article | //review", "book#b1 review article"},
	}
	for _, c := range cases {
		got, err := ep.Query(c.q)
		if err != nil {
			t.Fatalf("Query(%q): %v", c.q, err)
		}
		if texts(got) != c.want {
			t.Errorf("Query(%q) = %q, want %q", c.q, texts(got), c.want)
		}
		got2, err := er.Query(c.q)
		if err != nil {
			t.Fatalf("ruid Query(%q): %v", c.q, err)
		}
		if texts(got2) != texts(got) {
			t.Errorf("Query(%q): engines disagree: %q vs %q", c.q, texts(got), texts(got2))
		}
	}
	if _, err := ep.Query("//a |"); err == nil {
		t.Errorf("trailing union bar accepted")
	}
}

// TestMoreFunctions exercises the remaining predicate functions.
func TestMoreFunctions(t *testing.T) {
	doc := bookDoc(t)
	e := pointerEngine(t, doc)
	cases := []struct {
		q    string
		want int
	}{
		{"//book[string-length(title) > 9]", 1}, // only "Structures" (10)
		{"//*[name() = 'review']", 1},
		{"//book[position() = last()]", 1},
		{"//book[not(contains(title, 'Num'))]", 1},
		{"//book[author = 'Ann' and price < 40]", 1},
		{"//book[(author = 'Bob' or review) and price]", 2},
	}
	for _, c := range cases {
		got, err := e.Query(c.q)
		if err != nil {
			t.Fatalf("Query(%q): %v", c.q, err)
		}
		if len(got) != c.want {
			t.Errorf("Query(%q) = %d nodes, want %d", c.q, len(got), c.want)
		}
	}
}
