package xpath_test

import (
	"strings"
	"testing"

	"repro/internal/core"
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

// TestEnginesAgreeGenerated cross-checks all three scheme navigators
// against the pointer engine over generated corpora and a query workload.
func TestEnginesAgreeGenerated(t *testing.T) {
	docs := map[string]*xmltree.Node{
		"dblp":        xmltree.DBLP(60, 3),
		"xmark":       xmltree.XMark(1, 4),
		"shakespeare": xmltree.Shakespeare(2, 3, 4),
		"random":      xmltree.Random(xmltree.RandomConfig{Nodes: 300, MaxFanout: 6, Seed: 8, TextLeaf: true}),
	}
	queries := map[string][]string{
		"dblp": {
			"/dblp/article", "//author", "/dblp/article[year > 1995]/title",
			"//article[count(author) > 1]", "//title/..", "/dblp/article[3]",
			"//author[1]", "//article/author/following-sibling::*",
		},
		"xmark": {
			"//item/name", "/site/regions/*/item", "//person[profile]",
			"//open_auction/bidder", "//item[contains(name, '3')]",
			"//bidder/preceding-sibling::*", "//interest/..", "//parlist//text",
		},
		"shakespeare": {
			"//SPEECH/SPEAKER", "/PLAY/ACT[2]/SCENE[1]//LINE",
			"//SPEECH[SPEAKER='PLAYER1']", "//LINE[2]", "//SCENE/TITLE",
			"//SPEECH[last()]", "//ACT/following::SPEAKER",
		},
		"random": {
			"//e1", "//*[e2]", "//e3/ancestor::*", "//e4/preceding-sibling::*",
			"//e5/following::e6", "//*[count(*) > 2]", "//e7/..", "//text()",
		},
	}
	builders := []func(t *testing.T, doc *xmltree.Node) xpath.Navigator{
		func(t *testing.T, doc *xmltree.Node) xpath.Navigator {
			n, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 20, AdjustFanout: true}})
			if err != nil {
				t.Fatal(err)
			}
			return xpath.SchemeNavigator{S: n}
		},
		func(t *testing.T, doc *xmltree.Node) xpath.Navigator {
			n, err := uid.Build(doc, uid.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return xpath.SchemeNavigator{S: n}
		},
	}
	for name, doc := range docs {
		ep := xpath.NewEngine(doc, xpath.PointerNavigator{})
		for _, mk := range builders {
			nav := mk(t, doc)
			es := xpath.NewEngine(doc, nav)
			for _, q := range queries[name] {
				a, err := ep.Query(q)
				if err != nil {
					t.Fatalf("%s: pointer Query(%q): %v", name, q, err)
				}
				b, err := es.Query(q)
				if err != nil {
					t.Fatalf("%s/%s: Query(%q): %v", name, nav.Name(), q, err)
				}
				if len(a) != len(b) {
					t.Fatalf("%s/%s: Query(%q): pointer %d nodes, scheme %d",
						name, nav.Name(), q, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s/%s: Query(%q): node %d differs", name, nav.Name(), q, i)
					}
				}
			}
		}
	}
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
