package xmltree

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, s string) *Node {
	t.Helper()
	doc, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", s, err)
	}
	return doc
}

func TestParseBasic(t *testing.T) {
	doc := mustParse(t, `<a x="1"><b>hi</b><c/><!--note--></a>`)
	root := doc.DocumentElement()
	if root == nil || root.Name != "a" {
		t.Fatalf("root = %v", root)
	}
	if v, ok := root.Attr("x"); !ok || v != "1" {
		t.Fatalf("attr x = %q, %v", v, ok)
	}
	if root.Children.Len() != 2 { // comment dropped by default
		t.Fatalf("children = %d, want 2", root.Children.Len())
	}
	b := root.Children.At(0)
	if b.Name != "b" || b.Children.Len() != 1 || b.Children.At(0).Kind != Text || b.Children.At(0).Data != "hi" {
		t.Fatalf("unexpected b subtree: %s", Serialize(b))
	}
}

func TestParseOptions(t *testing.T) {
	src := `<a> <b/> <!--c--> <?pi data?></a>`
	doc, err := ParseWith(strings.NewReader(src), ParseOptions{
		KeepWhitespace: true, KeepComments: true, KeepProcInsts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	kinds := map[Kind]int{}
	for ci := 0; ci < root.Children.Len(); ci++ {
		c := root.Children.At(ci)
		kinds[c.Kind]++
	}
	if kinds[Text] != 3 || kinds[Comment] != 1 || kinds[ProcInst] != 1 || kinds[Element] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"", "<a>", "<a></b>", "just text"} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q): expected error", src)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	srcs := []string{
		`<a x="1" y="&lt;&amp;&quot;"><b>text &amp; more</b><c/></a>`,
		`<dblp><article key="k1"><title>T</title></article></dblp>`,
	}
	for _, src := range srcs {
		doc := mustParse(t, src)
		out := Serialize(doc)
		doc2 := mustParse(t, out)
		if got := Serialize(doc2); got != out {
			t.Errorf("round trip not stable:\n first %s\nsecond %s", out, got)
		}
	}
}

func TestMutation(t *testing.T) {
	doc := mustParse(t, `<a><b/><c/><d/></a>`)
	root := doc.DocumentElement()
	x := NewElement("x")
	root.InsertChildAt(1, x)
	if names(root) != "b,x,c,d" {
		t.Fatalf("after insert: %s", names(root))
	}
	if x.Index() != 1 || x.Parent != root {
		t.Fatalf("x index/parent wrong")
	}
	removed := root.RemoveChild(2)
	if removed.Name != "c" || removed.Parent != nil {
		t.Fatalf("removed %v", removed)
	}
	if names(root) != "b,x,d" {
		t.Fatalf("after remove: %s", names(root))
	}
	x.Detach()
	if names(root) != "b,d" {
		t.Fatalf("after detach: %s", names(root))
	}
}

func names(n *Node) string {
	var out []string
	for ci := 0; ci < n.Children.Len(); ci++ {
		c := n.Children.At(ci)
		out = append(out, c.Name)
	}
	return strings.Join(out, ",")
}

func TestMutationPanics(t *testing.T) {
	doc := mustParse(t, `<a><b/></a>`)
	root := doc.DocumentElement()
	assertPanic(t, "reattach", func() { root.AppendChild(root.Children.At(0)) })
	assertPanic(t, "range", func() { root.InsertChildAt(5, NewElement("x")) })
	assertPanic(t, "text child", func() { NewText("t").AppendChild(NewElement("x")) })
	assertPanic(t, "attr child", func() { root.AppendChild(&Node{Kind: Attribute, Name: "a"}) })
}

func assertPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestCloneIsDeepAndDetached(t *testing.T) {
	doc := mustParse(t, `<a x="1"><b><c>t</c></b></a>`)
	root := doc.DocumentElement()
	c := root.Clone()
	if c.Parent != nil {
		t.Fatalf("clone has a parent")
	}
	if Serialize(c) != Serialize(root) {
		t.Fatalf("clone differs: %s vs %s", Serialize(c), Serialize(root))
	}
	c.Children.At(0).Children.At(0).Children.At(0).Data = "changed"
	if strings.Contains(Serialize(root), "changed") {
		t.Fatalf("clone shares nodes with the original")
	}
}

func TestDepthRootIndexPath(t *testing.T) {
	doc := mustParse(t, `<a><b><c/></b><d/></a>`)
	root := doc.DocumentElement()
	c := root.Children.At(0).Children.At(0)
	if c.Depth() != 3 { // document -> a -> b -> c
		t.Fatalf("depth = %d", c.Depth())
	}
	if c.Root() != doc {
		t.Fatalf("Root() != document")
	}
	if got := c.Path(); got != "/a[0]/b[0]/c[0]" {
		t.Fatalf("Path() = %q", got)
	}
	if root.Children.At(1).Index() != 1 {
		t.Fatalf("Index of d = %d", root.Children.At(1).Index())
	}
}

func TestTextsAndChildHelpers(t *testing.T) {
	doc := mustParse(t, `<a><b>one</b><b>two</b><c>three</c></a>`)
	root := doc.DocumentElement()
	if root.Texts() != "onetwothree" {
		t.Fatalf("Texts() = %q", root.Texts())
	}
	if len(root.ChildElements("b")) != 2 || len(root.ChildElements("")) != 3 {
		t.Fatalf("ChildElements wrong")
	}
	if root.FirstChildElement("c").Texts() != "three" {
		t.Fatalf("FirstChildElement wrong")
	}
}

func TestStructuralChildren(t *testing.T) {
	doc := mustParse(t, `<a p="1" q="2"><b/></a>`)
	root := doc.DocumentElement()
	plain := root.StructuralChildren(nil, false)
	if len(plain) != 1 {
		t.Fatalf("plain children = %d", len(plain))
	}
	full := root.StructuralChildren(nil, true)
	if len(full) != 3 || full[0].Kind != Attribute || full[2].Name != "b" {
		t.Fatalf("full children wrong: %v", full)
	}
}

func TestWalkSkipsSubtree(t *testing.T) {
	doc := mustParse(t, `<a><b><c/></b><d/></a>`)
	var visited []string
	doc.DocumentElement().Walk(func(n *Node) bool {
		visited = append(visited, n.Name)
		return n.Name != "b"
	})
	if strings.Join(visited, ",") != "a,b,d" {
		t.Fatalf("visited = %v", visited)
	}
}

func TestParseWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/doc.xml"
	doc := mustParse(t, `<a><b>x</b></a>`)
	if err := WriteFile(path, doc); err != nil {
		t.Fatal(err)
	}
	back, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if Serialize(back) != Serialize(doc) {
		t.Fatalf("file round trip differs")
	}
	if _, err := ParseFile(dir + "/missing.xml"); err == nil {
		t.Fatalf("missing file accepted")
	}
	if err := WriteFile(dir+"/nope/doc.xml", doc); err == nil {
		t.Fatalf("bad path accepted")
	}
}
