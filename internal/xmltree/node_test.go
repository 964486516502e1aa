package xmltree

import (
	"fmt"
	"slices"
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
	if root.NumChildren() != 2 { // comment dropped by default
		t.Fatalf("children = %d, want 2", root.NumChildren())
	}
	b := root.Child(0)
	if b.Name != "b" || b.NumChildren() != 1 || b.Child(0).Kind != Text || b.Child(0).Data != "hi" {
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
	for ci := 0; ci < root.NumChildren(); ci++ {
		c := root.Child(ci)
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
	for ci := 0; ci < n.NumChildren(); ci++ {
		c := n.Child(ci)
		out = append(out, c.Name)
	}
	return strings.Join(out, ",")
}

func TestMutationPanics(t *testing.T) {
	doc := mustParse(t, `<a><b/></a>`)
	root := doc.DocumentElement()
	assertPanic(t, "reattach", func() { root.AppendChild(root.Child(0)) })
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
	c.Child(0).Child(0).Child(0).Data = "changed"
	if strings.Contains(Serialize(root), "changed") {
		t.Fatalf("clone shares nodes with the original")
	}
}

func TestDepthRootIndexPath(t *testing.T) {
	doc := mustParse(t, `<a><b><c/></b><d/></a>`)
	root := doc.DocumentElement()
	c := root.Child(0).Child(0)
	if c.Depth() != 3 { // document -> a -> b -> c
		t.Fatalf("depth = %d", c.Depth())
	}
	if c.Root() != doc {
		t.Fatalf("Root() != document")
	}
	if got := c.Path(); got != "/a[0]/b[0]/c[0]" {
		t.Fatalf("Path() = %q", got)
	}
	if root.Child(1).Index() != 1 {
		t.Fatalf("Index of d = %d", root.Child(1).Index())
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

// attrNames lists n's attributes as name=value, in order.
func attrNames(n *Node) string {
	var out []string
	for _, a := range n.Attrs() {
		out = append(out, a.Name+"="+a.Data)
	}
	return strings.Join(out, ",")
}

// TestSetAttrBehindChildren adds attributes to elements that already have
// children, a narrow one and one wide enough for its sequence to be chunked:
// each new attribute goes behind the others and in front of every child, and
// the children keep their positions.
func TestSetAttrBehindChildren(t *testing.T) {
	for _, kids := range []int{2, 130} {
		a := NewElement("a")
		for i := 0; i < kids; i++ {
			a.AppendChild(NewElement("k"))
		}
		want := a.AppendChildren(nil)
		a.SetAttr("x", "1")
		a.SetAttr("y", "2")
		a.SetAttr("x", "3") // replaced in place
		if got := attrNames(a); got != "x=3,y=2" || a.NumAttrs() != 2 {
			t.Fatalf("%d children: attributes %s (%d)", kids, got, a.NumAttrs())
		}
		if a.NumChildren() != kids || a.Seq().Len() != kids+2 {
			t.Fatalf("%d children: %d children, sequence of %d", kids, a.NumChildren(), a.Seq().Len())
		}
		for i, c := range want {
			if a.Child(i) != c || c.Index() != i {
				t.Fatalf("%d children: child %d moved", kids, i)
			}
		}
		if full := a.StructuralChildren(nil, true); full[0].Name != "x" || full[1].Name != "y" || full[2] != want[0] {
			t.Fatalf("%d children: structural children do not lead with the attributes", kids)
		}
		if !strings.HasPrefix(Serialize(a), `<a x="3" y="2"><k/>`) {
			t.Fatalf("%d children: serialized as %.40s", kids, Serialize(a))
		}
	}
}

// TestAttrDetachIndex: an attribute's Index counts among the attributes, and
// Detach takes it out of the prefix without moving a child.
func TestAttrDetachIndex(t *testing.T) {
	a := mustParse(t, `<a p="1" q="2" r="3"><b/>t<c/></a>`).DocumentElement()
	attrs, kids := slices.Clone(a.Attrs()), a.AppendChildren(nil)
	for i, at := range attrs {
		if at.Index() != i {
			t.Fatalf("attribute %s: Index %d, want %d", at.Name, at.Index(), i)
		}
	}
	q := attrs[1]
	q.Detach()
	if q.Parent != nil || attrNames(a) != "p=1,r=3" || attrs[2].Index() != 1 {
		t.Fatalf("after detaching q: attributes %s, r at %d", attrNames(a), attrs[2].Index())
	}
	for i, c := range kids {
		if a.Child(i) != c || c.Index() != i {
			t.Fatalf("child %d moved when an attribute left", i)
		}
	}
	a.Child(0).Detach()
	if attrNames(a) != "p=1,r=3" || a.NumChildren() != 2 || a.Child(0).Kind != Text {
		t.Fatalf("after detaching b: attributes %s, %d children", attrNames(a), a.NumChildren())
	}
	if Serialize(a) != `<a p="1" r="3">t<c/></a>` {
		t.Fatalf("serialized as %s", Serialize(a))
	}
}

// TestCopiesKeepAttrOrder: Clone, CloneWithMap and ShallowCopy give the copy
// its own attributes, in the original's order, parented to the copy and in
// front of its children.
func TestCopiesKeepAttrOrder(t *testing.T) {
	a := mustParse(t, `<a z="1" m="2" b="3"><k y="4" x="5"/><k/></a>`).DocumentElement()
	a.SetAttr("a", "6")
	clone, m := a.CloneWithMap()
	shallow := a.ShallowCopy()
	for _, c := range []struct {
		name string
		copy *Node
	}{{"Clone", a.Clone()}, {"CloneWithMap", clone}, {"ShallowCopy", shallow}} {
		if got := attrNames(c.copy); got != "z=1,m=2,b=3,a=6" {
			t.Fatalf("%s: attributes %s", c.name, got)
		}
		for i, at := range c.copy.Attrs() {
			if at == a.Attrs()[i] || at.Parent != c.copy || at.Kind != Attribute {
				t.Fatalf("%s: attribute %s is not the copy's own", c.name, at.Name)
			}
		}
		if c.copy.NumChildren() != 2 || attrNames(c.copy.Child(0)) != "y=4,x=5" {
			t.Fatalf("%s: children %d, first with attributes %s", c.name, c.copy.NumChildren(), attrNames(c.copy.Child(0)))
		}
	}
	for i, at := range a.Attrs() {
		if m[at] != clone.Attrs()[i] {
			t.Fatalf("CloneWithMap maps attribute %s elsewhere", at.Name)
		}
	}
	if shallow.Child(0) != a.Child(0) {
		t.Fatal("ShallowCopy copied a child")
	}
	if a.Attrs()[0].Parent != a {
		t.Fatal("ShallowCopy re-parented the original's attributes")
	}
}

// TestAttrsPastOneChunk: a prefix of more attributes than a chunk holds is
// read back whole and in order, set in between children being added.
func TestAttrsPastOneChunk(t *testing.T) {
	a := NewElement("a")
	var want []string
	for i := 0; i < 150; i++ {
		name := fmt.Sprint("p", i)
		a.SetAttr(name, "v")
		want = append(want, name+"=v")
		if i%15 == 0 {
			a.AppendChild(NewText(name))
		}
	}
	for _, n := range []*Node{a, a.Clone(), a.ShallowCopy()} {
		if got := attrNames(n); got != strings.Join(want, ",") {
			t.Fatalf("attributes %.80s…", got)
		}
		if n.NumChildren() != 10 || n.Child(9).Data != "p135" {
			t.Fatalf("%d children", n.NumChildren())
		}
	}
	p70 := a.Attrs()[70]
	p70.Detach()
	if a.NumAttrs() != 149 || a.Attrs()[70].Name != "p71" || a.Attrs()[70].Index() != 70 || a.Child(0).Data != "p0" {
		t.Fatalf("after detaching p70: %d attributes, %s at 70", a.NumAttrs(), a.Attrs()[70].Name)
	}
}

// uniformTruth reports whether n's children are elements of one name.
func uniformTruth(n *Node) bool { return uniformOf(n.AppendChildren(nil)) }

// TestUniformChildren holds the uniform bit: the parser sets it exactly on
// every node with children, the copies carry it, an insert or a re-pointed
// entry keeps it exact, and a removal never sets it.
func TestUniformChildren(t *testing.T) {
	doc := mustParse(t, `<r a="1"><c/><c><d/>t</c><c><d/><d/></c><e><x/></e><e>t<x/></e><f/></r>`)
	doc.WalkFull(func(n *Node) bool {
		if n.NumChildren() > 0 && n.UniformChildren() != uniformTruth(n) || !n.UniformSound() {
			t.Fatalf("parsed %s: uniform %v, want %v", n.Path(), n.UniformChildren(), uniformTruth(n))
		}
		return true
	})
	r := doc.DocumentElement()
	if r.UniformChildren() || !r.Child(2).UniformChildren() || r.Child(1).UniformChildren() || r.Child(4).UniformChildren() {
		t.Fatal("parsed bits differ from the children they describe")
	}
	c := r.Child(2) // <c><d/><d/></c>
	for _, x := range []*Node{c.Clone(), c.ShallowCopy()} {
		if !x.UniformChildren() {
			t.Fatal("a copy dropped the bit")
		}
	}

	// Built by appends, a node is exact from its first child on.
	b := NewElement("b")
	b.AppendChild(NewElement("k"))
	b.AppendChild(NewElement("k"))
	if !b.UniformChildren() {
		t.Fatal("two k appended: not uniform")
	}
	b.InsertChildAt(1, NewElement("z"))
	if b.UniformChildren() {
		t.Fatal("a z inserted among the k: still uniform")
	}
	// Removing the z makes the children uniform, and the bit stays false.
	b.RemoveChild(1)
	if b.UniformChildren() || !uniformTruth(b) {
		t.Fatal("a removal set the bit")
	}
	for b.NumChildren() > 0 {
		b.TakeChild(0)
	}
	b.PutChild(0, NewText("t"))
	if b.UniformChildren() {
		t.Fatal("a text child: uniform")
	}
	b.TakeChild(0)
	b.PutChild(0, NewElement("k"))
	if !b.UniformChildren() {
		t.Fatal("the first child of an empty node: not exact")
	}
	b.SetAttr("a", "1")
	b.AppendChild(NewElement("k"))
	if !b.UniformChildren() {
		t.Fatal("an attribute cleared the bit")
	}
	// A path-copying writer re-points an entry at the copy of its node.
	b.SetEntry(b.NumAttrs(), b.Child(0).ShallowCopy())
	if !b.UniformChildren() {
		t.Fatal("re-pointing an entry at a copy cleared the bit")
	}
	b.SetEntry(0, b.Attrs()[0].ShallowCopy())
	if !b.UniformChildren() {
		t.Fatal("re-pointing an attribute cleared the bit")
	}
	b.SetEntry(b.NumAttrs()+1, NewElement("z"))
	if b.UniformChildren() || !b.UniformSound() {
		t.Fatal("an entry re-pointed at a z: still uniform")
	}
	c.Child(0).Detach()
	if !c.UniformChildren() {
		t.Fatal("a detach changed a uniform bit")
	}
}
