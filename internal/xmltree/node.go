// Package xmltree provides the XML document substrate used by every
// numbering scheme in this repository: a mutable DOM-like node tree, a parser
// built on encoding/xml, a serializer, ground-truth structural predicates
// (parent, ancestor, document order), tree statistics, and deterministic
// synthetic document generators.
//
// The numbering schemes in internal/uid, internal/prepost and internal/core
// operate on *Node trees and are validated against the pointer-based ground
// truth defined here.
package xmltree

import (
	"fmt"
	"slices"
	"strings"
)

// Kind identifies the type of a Node.
type Kind uint8

// Node kinds. Document is the virtual root produced by Parse; an XML tree
// always has exactly one Document node at the top with the root element as a
// child (possibly surrounded by comments and processing instructions).
const (
	Document Kind = iota
	Element
	Text
	Comment
	ProcInst
	Attribute
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Document:
		return "document"
	case Element:
		return "element"
	case Text:
		return "text"
	case Comment:
		return "comment"
	case ProcInst:
		return "procinst"
	case Attribute:
		return "attribute"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NodeNum is an opaque numbering stamp: the label a numbering scheme burns
// into the node it numbers, so that node→identifier is a field read with no
// per-node table beside the tree. The zero value means "not numbered" (G is
// never 0 in a valid stamp). xmltree does not interpret the fields and only
// copies them (Clone, CloneWithMap and ShallowCopy copy a node's stamp with
// it, which is how a copy of a numbered tree is numbered for free).
//
// internal/core keeps its 2-level ruid (global, local, root-flag) here, in
// every tree it numbers. A node has one stamp, so a tree
// carries at most one such numbering at a time: numbering a tree again
// overwrites the stamps, and the earlier numbering must not be used after
// that. core clears the stamps of a subtree it deletes and of one it inserts
// (a fork inserts a copy of a stamped one), so a stamp never outlives the
// numbering that wrote it.
type NodeNum struct {
	G, L int64
	R    bool
}

// Node is a node of an XML tree. The zero value is not useful; create nodes
// with the NewX constructors or by parsing.
//
// Attributes are kept on a separate list (Attrs) as in the XPath data model,
// but StructuralChildren exposes them before the regular children so that
// numbering schemes can enumerate "all components of XML document trees"
// (paper §4) when configured to do so.
type Node struct {
	Kind     Kind
	Name     string  // element name, attribute name or PI target
	Data     string  // text content, comment text, attribute value or PI data
	Parent   *Node   // nil for the document node and, in a tree a document.Document publishes, for all but attributes
	Children Seq     // element and document nodes only
	Attrs    []*Node // element nodes only; each has Kind == Attribute
	Num      NodeNum // the label this node carries (see NodeNum)
}

// Node is 128 bytes, a size class of the allocator, and Children may not grow
// past the four words Seq takes: a fifth moves every node of every document
// into the 144-byte class.

// NewDocument returns an empty document node.
func NewDocument() *Node { return &Node{Kind: Document} }

// NewElement returns a detached element node with the given name.
func NewElement(name string) *Node { return &Node{Kind: Element, Name: name} }

// NewText returns a detached text node.
func NewText(data string) *Node { return &Node{Kind: Text, Data: data} }

// NewComment returns a detached comment node.
func NewComment(data string) *Node { return &Node{Kind: Comment, Data: data} }

// NewProcInst returns a detached processing-instruction node.
func NewProcInst(target, data string) *Node {
	return &Node{Kind: ProcInst, Name: target, Data: data}
}

// SetAttr sets (or replaces) an attribute on an element and returns the
// attribute node. It panics if n is not an element.
func (n *Node) SetAttr(name, value string) *Node {
	if n.Kind != Element {
		panic("xmltree: SetAttr on non-element node")
	}
	for _, a := range n.Attrs {
		if a.Name == name {
			a.Data = value
			return a
		}
	}
	a := &Node{Kind: Attribute, Name: name, Data: value, Parent: n}
	n.Attrs = append(n.Attrs, a)
	return a
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Data, true
		}
	}
	return "", false
}

// AppendChild attaches c as the last child of n. It panics if c already has a
// parent or if n cannot hold children.
func (n *Node) AppendChild(c *Node) {
	n.InsertChildAt(n.Children.Len(), c)
}

// InsertChildAt inserts c so that it becomes the child at position i
// (0-based) of n, shifting later siblings right. It panics if c already has
// a parent, if i is out of range, or if n cannot hold children.
func (n *Node) InsertChildAt(i int, c *Node) {
	if n.Kind != Element && n.Kind != Document {
		panic("xmltree: insert child into " + n.Kind.String() + " node")
	}
	if c.Parent != nil {
		panic("xmltree: node already has a parent")
	}
	if c.Kind == Attribute || c.Kind == Document {
		panic("xmltree: cannot insert " + c.Kind.String() + " node as child")
	}
	if i < 0 || i > n.Children.Len() {
		panic("xmltree: insert position out of range")
	}
	c.Parent = n
	n.Children.Insert(i, c)
}

// RemoveChild detaches the child at position i and returns it. The removal
// is cascading in the sense of the paper (§3.2): the whole subtree rooted at
// the child leaves the document.
func (n *Node) RemoveChild(i int) *Node {
	if i < 0 || i >= n.Children.Len() {
		panic("xmltree: remove position out of range")
	}
	c := n.Children.At(i)
	n.Children.Delete(i)
	c.Parent = nil
	return c
}

// Detach removes n from its parent. It is a no-op for parentless nodes.
func (n *Node) Detach() {
	p := n.Parent
	if p == nil {
		return
	}
	if n.Kind == Attribute {
		for i, a := range p.Attrs {
			if a == n {
				copy(p.Attrs[i:], p.Attrs[i+1:])
				p.Attrs = p.Attrs[:len(p.Attrs)-1]
				n.Parent = nil
				return
			}
		}
		panic("xmltree: attribute not found on its parent")
	}
	p.RemoveChild(n.Index())
}

// Index returns the position of n among its parent's children (or among its
// parent's attributes for attribute nodes). It panics for parentless nodes.
func (n *Node) Index() int {
	p := n.Parent
	if p == nil {
		panic("xmltree: Index of parentless node")
	}
	i := p.Children.Index(n)
	if n.Kind == Attribute {
		i = slices.Index(p.Attrs, n)
	}
	if i < 0 {
		panic("xmltree: node not found among its parent's children")
	}
	return i
}

// Root returns the topmost ancestor of n (n itself if parentless).
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// Depth returns the number of edges from n to its root; the root has depth 0.
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// DocumentElement returns the first element child of a document node, or nil.
func (n *Node) DocumentElement() *Node {
	return n.FirstChildElement("")
}

// StructuralChildren appends to dst the children of n as seen by a numbering
// scheme that enumerates every component of the document — attributes first
// (in definition order) when withAttrs, then regular children — and returns
// the extended slice.
func (n *Node) StructuralChildren(dst []*Node, withAttrs bool) []*Node {
	if withAttrs {
		dst = append(dst, n.Attrs...)
	}
	return n.Children.AppendTo(dst)
}

// StructuralFanout returns how many children StructuralChildren yields.
func (n *Node) StructuralFanout(withAttrs bool) int {
	if withAttrs {
		return len(n.Attrs) + n.Children.Len()
	}
	return n.Children.Len()
}

// FirstChildElement returns the first child element with the given name
// ("" matches any element), or nil.
func (n *Node) FirstChildElement(name string) *Node {
	for i := 0; i < n.Children.Len(); i++ {
		if c := n.Children.At(i); c.Kind == Element && (name == "" || c.Name == name) {
			return c
		}
	}
	return nil
}

// ChildElements returns all child elements with the given name ("" matches
// any element).
func (n *Node) ChildElements(name string) []*Node {
	var out []*Node
	for i := 0; i < n.Children.Len(); i++ {
		if c := n.Children.At(i); c.Kind == Element && (name == "" || c.Name == name) {
			out = append(out, c)
		}
	}
	return out
}

// Texts returns the concatenation of all descendant text node data, the
// XPath string-value of an element.
func (n *Node) Texts() string {
	if n.Kind == Text || n.Kind == Attribute || n.Kind == Comment {
		return n.Data
	}
	var b strings.Builder
	n.Walk(func(d *Node) bool {
		if d.Kind == Text {
			b.WriteString(d.Data)
		}
		return true
	})
	return b.String()
}

// Walk visits n and every descendant in preorder (document order),
// excluding attributes. If fn returns false the subtree below the visited
// node is skipped (the walk continues with the following node).
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for i := 0; i < n.Children.Len(); i++ {
		n.Children.At(i).Walk(fn)
	}
}

// WalkFull visits n and every descendant in document order, including
// attribute nodes (visited directly after their element, before its
// children). If fn returns false the subtree below the visited node is
// skipped.
func (n *Node) WalkFull(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, a := range n.Attrs {
		fn(a)
	}
	for i := 0; i < n.Children.Len(); i++ {
		n.Children.At(i).WalkFull(fn)
	}
}

// Nodes returns n and all its descendants in document order, excluding
// attributes.
func (n *Node) Nodes() []*Node {
	var out []*Node
	n.Walk(func(d *Node) bool {
		out = append(out, d)
		return true
	})
	return out
}

// Elements returns every descendant-or-self element of n in document order.
func (n *Node) Elements() []*Node {
	var out []*Node
	n.Walk(func(d *Node) bool {
		if d.Kind == Element {
			out = append(out, d)
		}
		return true
	})
	return out
}

// Clone returns a deep copy of the subtree rooted at n. The copy is
// detached (its Parent is nil).
func (n *Node) Clone() *Node {
	return n.cloneInto(nil)
}

// CloneWithMap returns a deep copy of the subtree rooted at n together
// with a mapping from every original node (attributes included) to its
// clone, which is what re-points a numbering at the cloned tree
// (core.Numbering.CloneFor).
func (n *Node) CloneWithMap() (*Node, map[*Node]*Node) {
	m := make(map[*Node]*Node)
	return n.cloneInto(m), m
}

func (n *Node) cloneInto(m map[*Node]*Node) *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Data: n.Data, Num: n.Num}
	if m != nil {
		m[n] = c
	}
	for _, a := range n.Attrs {
		ac := &Node{Kind: Attribute, Name: a.Name, Data: a.Data, Parent: c, Num: a.Num}
		if m != nil {
			m[a] = ac
		}
		c.Attrs = append(c.Attrs, ac)
	}
	for i := 0; i < n.Children.Len(); i++ {
		cc := n.Children.At(i).cloneInto(m)
		cc.Parent = c
		c.Children.Append(cc)
	}
	return c
}

// ShallowCopy returns a copy of n alone, for path-copying writers: the copy
// has its own child list holding n's children themselves (Seq.Share: a wide
// list's chunks are shared until the copy writes them), its own copies of
// n's attributes (an attribute is reached only through its element, so the
// two are copied together), n's stamp, and no Parent.
func (n *Node) ShallowCopy() *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Data: n.Data, Num: n.Num}
	c.Children = n.Children.Share()
	for _, a := range n.Attrs {
		c.Attrs = append(c.Attrs, &Node{Kind: Attribute, Name: a.Name, Data: a.Data, Parent: c, Num: a.Num})
	}
	return c
}

// Path returns a human-readable slash path from the root to n, for error
// messages and debugging (e.g. "/doc[0]/section[2]/title[0]"). It climbs
// Parent pointers.
func (n *Node) Path() string {
	var steps []string
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		steps = append(steps, cur.PathStep(cur.Parent))
	}
	return JoinPath(steps)
}

// PathStep returns n's step of a Path under parent, the node holding it:
// "@name" for an attribute, otherwise its name (its kind when it has none)
// and its position among parent's children.
func (n *Node) PathStep(parent *Node) string {
	label := n.Name
	if label == "" {
		label = n.Kind.String()
	}
	if n.Kind == Attribute {
		return "@" + label
	}
	return fmt.Sprintf("%s[%d]", label, parent.Children.Index(n))
}

// JoinPath assembles a Path from its steps, innermost first; no steps make
// the path of a root, "/".
func JoinPath(steps []string) string {
	if len(steps) == 0 {
		return "/"
	}
	var b strings.Builder
	for i := len(steps) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(steps[i])
	}
	return b.String()
}
