package xmltree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// randomTextDoc builds a random document with hostile text and attribute
// content (characters that require escaping).
func randomTextDoc(seed int64, nodes int) *Node {
	rng := rand.New(rand.NewSource(seed))
	hostile := []string{`<`, `>`, `&`, `"`, `'`, "plain", "a&b<c>", `"quoted"`, "tab\tsep"}
	doc := Random(RandomConfig{Nodes: nodes, MaxFanout: 4, Seed: seed})
	doc.DocumentElement().Walk(func(n *Node) bool {
		if n.Kind != Element {
			return true
		}
		if rng.Intn(2) == 0 {
			n.SetAttr("h", hostile[rng.Intn(len(hostile))])
		}
		if n.NumChildren() == 0 && rng.Intn(2) == 0 {
			n.AppendChild(NewText(hostile[rng.Intn(len(hostile))]))
		}
		return true
	})
	return doc
}

type roundTripSpec struct {
	Seed  int64
	Nodes int
}

func (roundTripSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(roundTripSpec{Seed: r.Int63(), Nodes: 2 + r.Intn(60)})
}

// TestQuickSerializeParseRoundTrip: Serialize ∘ Parse is the identity on
// the tree structure and content, including characters needing escapes.
func TestQuickSerializeParseRoundTrip(t *testing.T) {
	f := func(spec roundTripSpec) bool {
		doc := randomTextDoc(spec.Seed, spec.Nodes)
		out := Serialize(doc)
		doc2, err := ParseString(out)
		if err != nil {
			t.Logf("parse back failed: %v\n%s", err, out)
			return false
		}
		return equalTrees(doc.DocumentElement(), doc2.DocumentElement())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func equalTrees(a, b *Node) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.Data != b.Data {
		return false
	}
	if a.NumAttrs() != b.NumAttrs() || a.NumChildren() != b.NumChildren() {
		return false
	}
	for i := range a.Attrs() {
		if a.Attrs()[i].Name != b.Attrs()[i].Name || a.Attrs()[i].Data != b.Attrs()[i].Data {
			return false
		}
	}
	for i := 0; i < a.NumChildren(); i++ {
		if !equalTrees(a.Child(i), b.Child(i)) {
			return false
		}
	}
	return true
}

// TestEscaping pins the escaping rules directly.
func TestEscaping(t *testing.T) {
	doc := NewDocument()
	e := NewElement("e")
	e.SetAttr("a", `x<y>&"z`)
	e.AppendChild(NewText("1<2 & 3>0"))
	doc.AppendChild(e)
	out := Serialize(doc)
	want := `<e a="x&lt;y&gt;&amp;&quot;z">1&lt;2 &amp; 3&gt;0</e>`
	if out != want {
		t.Fatalf("Serialize = %s, want %s", out, want)
	}
	back, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.DocumentElement().Attr("a"); v != `x<y>&"z` {
		t.Fatalf("attr round trip = %q", v)
	}
	if got := back.DocumentElement().Texts(); got != "1<2 & 3>0" {
		t.Fatalf("text round trip = %q", got)
	}
}

// TestParseMergesAdjacentText: character data that nothing but a CDATA
// boundary or a dropped comment or processing instruction separates is one
// text node, so the tree reads back from its serialization unchanged.
func TestParseMergesAdjacentText(t *testing.T) {
	for _, tc := range []struct {
		src  string
		opts ParseOptions
		want []string // the data of a's children; "" stands for a non-text child
	}{
		{src: "<a>x<![CDATA[y]]>z</a>", want: []string{"xyz"}},
		{src: "<a>x<!--c-->y</a>", want: []string{"xy"}},
		{src: "<a>x<?p?>y</a>", want: []string{"xy"}},
		{src: "<a>x<!--c-->y</a>", opts: ParseOptions{KeepComments: true}, want: []string{"x", "", "y"}},
		{src: "<a>x<?p?>y</a>", opts: ParseOptions{KeepProcInsts: true}, want: []string{"x", "", "y"}},
		{src: "<a> <!--c--> </a>", want: nil},
		{src: "<a> <![CDATA[x]]> </a>", want: []string{" x "}},
		{src: "<a><![CDATA[]]></a>", opts: ParseOptions{KeepWhitespace: true}, want: nil},
	} {
		doc, err := ParseWith(strings.NewReader(tc.src), tc.opts)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		var got []string
		a := doc.DocumentElement()
		for i := 0; i < a.NumChildren(); i++ {
			got = append(got, a.Child(i).Data)
			if a.Child(i).Kind != Text {
				got[i] = ""
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q %+v: children %q, want %q", tc.src, tc.opts, got, tc.want)
		}
		if back := mustParse(t, Serialize(doc)); tc.opts == (ParseOptions{}) && !equalTrees(doc, back) {
			t.Errorf("%q: serialize-reparse changed the tree to %s", tc.src, Serialize(back))
		}
	}
}

// TestParseWhitespaceIsXMLWhitespace: only #x20, #x9, #xD and #xA make text
// whitespace-only; a no-break or em space is content.
func TestParseWhitespaceIsXMLWhitespace(t *testing.T) {
	for src, want := range map[string]string{
		"<a>&#160;</a>":         "\u00a0",
		"<a>\u00a0</a>":         "\u00a0",
		"<a>\u2003</a>":         "\u2003",
		"<a> \t\r\n</a>":        "",
		"<a>&#32;&#9;&#13;</a>": "",
	} {
		if got := mustParse(t, src).DocumentElement().Texts(); got != want {
			t.Errorf("%q: text %q, want %q", src, got, want)
		}
	}
}

// TestParseWellFormedness: what a document may not hold.
func TestParseWellFormedness(t *testing.T) {
	for _, tc := range []struct {
		src string
		ok  bool
	}{
		{"<a/><b/>", false},                     // a second root element
		{"<a/><a/>", false},                     //
		{"<a>x</a>trailing", false},             // character data outside the root
		{"lead<a/>", false},                     //
		{"<![CDATA[x]]><a/>", false},            //
		{"<a/>&#65;", false},                    //
		{"<a x='1' x='2'/>", false},             // an attribute repeated as written
		{`<a xmlns:p="u" xmlns:p="v"/>`, false}, //
		{"<p:1a/>", false},                      // a local part that does not begin a name
		{"<a/> \n\t<!--c--><?p?>", true},        // whitespace, comments and PIs around the root
		{"<a/>&#32;", true},                     //
		{"\uFEFF<a/>", true},                    // a byte order mark
		{`<a p:x="1" q:x="2"/>`, true},          // distinct as written; the tree keeps x="2"
	} {
		if _, err := ParseString(tc.src); (err == nil) != tc.ok {
			t.Errorf("ParseString(%q): err = %v, want accepted = %v", tc.src, err, tc.ok)
		}
	}
}

// TestParseAllocs gates what a parse allocates: node by node, the tree and
// little else, and nothing that points into the source.
func TestParseAllocs(t *testing.T) {
	const frag = "<bidder><increase>1.50</increase></bidder>"
	n := testing.AllocsPerRun(100, func() { _, _ = ParseFragment(frag) })
	t.Logf("ParseFragment(%q): %.0f allocations", frag, n)
	if n > 12 {
		t.Errorf("ParseFragment(%q): %.0f allocations, want at most 12", frag, n)
	}

	src := Serialize(XMark(20, 1))
	doc := mustParse(t, src)
	nodes := 0
	doc.WalkFull(func(*Node) bool { nodes++; return true })
	allocs := testing.AllocsPerRun(1, func() { _, _ = ParseString(src) })
	t.Logf("XMark(20, 1): %.0f allocations for %d nodes", allocs, nodes)
	if per := allocs / float64(nodes); per > 2.5 {
		t.Errorf("XMark(20, 1): %.2f allocations per node (%.0f for %d nodes), want at most 2.5", per, allocs, nodes)
	}

	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	doc.WalkFull(func(n *Node) bool {
		for _, s := range []string{n.Name, n.Data} {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && lo <= p && p < hi {
				t.Fatalf("%s %q points into the source", n.Kind, s)
			}
		}
		return true
	})
}

// BenchmarkParseString parses the XMark document of scale 100.
func BenchmarkParseString(b *testing.B) {
	src := Serialize(XMark(100, 1))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}
