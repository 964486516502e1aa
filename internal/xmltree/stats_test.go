package xmltree

import "testing"

// chain builds root -> a -> b -> ... as a single path of n elements below
// the returned root element.
func chain(n int) *Node {
	root := NewElement("root")
	cur := root
	for i := 0; i < n; i++ {
		c := NewElement("e")
		cur.AppendChild(c)
		cur = c
	}
	return root
}

// TestMeasureDepthWithoutParent: Measure counts depth on the way down, so a
// tree whose nodes carry no Parent — a published one — measures as its
// parsed form does, and a subtree measures from its own root.
func TestMeasureDepthWithoutParent(t *testing.T) {
	root := chain(4)
	root.AppendChild(NewElement("leaf"))
	want := Measure(root)
	if want.MaxDepth != 4 || want.Nodes != 6 || want.Leaves != 2 {
		t.Fatalf("Measure(chain) = %+v, want maxDepth 4, 6 nodes, 2 leaves", want)
	}
	if got := Measure(root.Child(0)); got.MaxDepth != 3 {
		t.Fatalf("Measure(subtree).MaxDepth = %d, want 3", got.MaxDepth)
	}
	root.Walk(func(x *Node) bool {
		x.Parent = nil
		return true
	})
	if got := Measure(root); got.String() != want.String() {
		t.Fatalf("detached tree measures %v, want %v", got, want)
	}
}
