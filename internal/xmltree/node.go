// Package xmltree provides the XML document substrate used by every
// numbering scheme in this repository: a mutable DOM-like node tree, a
// one-pass XML parser, a serializer, ground-truth structural predicates
// (parent, ancestor, document order), tree statistics, and deterministic
// synthetic document generators.
//
// The numbering schemes in internal/uid, internal/prepost and internal/core
// operate on *Node trees and are validated against the pointer-based ground
// truth defined here.
package xmltree

import (
	"fmt"
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
// internal/core keeps its 2-level ruid (global, local, root flag) here, in
// every tree it numbers: global and local in the NodeNum, the flag in the
// node's header word beside Kind (SetNum writes the three together). A node
// has one stamp, so a tree carries at most one such numbering at a time:
// numbering a tree again overwrites the stamps, and the earlier numbering
// must not be used after that. core clears the stamps of a subtree it
// deletes and of one it inserts (a fork inserts a copy of a stamped one), so
// a stamp never outlives the numbering that wrote it.
type NodeNum struct {
	G, L int64
}

// Node is a node of an XML tree. The zero value is not useful; create nodes
// with the NewX constructors or by parsing.
//
// An element's attributes and its children are one sequence: the attributes
// first, in definition order, their count in the header word, then the
// children (the attribute prefix). The XPath data model keeps them apart, and
// so do the accessors — Attrs, NumAttrs for the attributes, Child, NumChildren
// and AppendChildren for the children — while StructuralChildren hands a
// numbering scheme that enumerates "all components of XML document trees"
// (paper §4) the sequence itself.
//
// Node is 96 bytes on a 64-bit platform, a size class of the allocator: an
// 8-byte header (Kind, the root flag of the stamp, the uniform bit, the
// attribute count), Name, Data, Parent, the sequence's four words and the
// stamp. TestNodeStaysInItsSizeClass holds the figure; a field more, or a Seq
// grown by one word, moves every node of every document into the 112-byte
// class.
//
// The uniform bit (UniformChildren) says that every child — attributes
// excluded — is an element and that all of them share one name, which makes
// the k-th child of a name the k-th child: a positional step reads one slot
// instead of walking k siblings. The parser sets it exactly; InsertChildAt,
// PutChild and SetEntry keep it in O(1) by comparing the new child with one
// already there; a removal never sets it, so after one it may read false
// where it could read true, which costs only the walk. A node's Kind and
// Name must not change while it is a child. TestUniformChildren holds the
// maintenance, and under RUID_DEBUG each publication checks the bit on the
// tree it installs.
type Node struct {
	Kind    Kind
	root    bool   // the root flag of the stamp (SetNum)
	uniform bool   // every child is an element of one name (UniformChildren)
	nattr   uint32 // how many entries at the front of seq are attributes
	Name    string // element name, attribute name or PI target
	Data    string // text content, comment text, attribute value or PI data
	Parent  *Node  // nil for the document node and, in a tree a document.Document publishes, for all but attributes
	seq     Seq    // element and document nodes only: the attributes, then the children
	num     NodeNum
}

// NewDocument returns an empty document node.
func NewDocument() *Node { return &Node{Kind: Document} }

// NewElement returns a detached element node with the given name.
func NewElement(name string) *Node { return &Node{Kind: Element, Name: name} }

// NewText returns a detached text node.
func NewText(data string) *Node { return &Node{Kind: Text, Data: data} }

// Num returns the stamp n carries and its root flag (see NodeNum).
func (n *Node) Num() (num NodeNum, root bool) { return n.num, n.root }

// SetNum stamps n; the zero NodeNum with root false clears the stamp. It is
// the one place a stamp is written.
func (n *Node) SetNum(num NodeNum, root bool) { n.num, n.root = num, root }

// Seq returns n's sequence: its attributes (the first NumAttrs entries), then
// its children. It must not be written; the Node methods below do that.
func (n *Node) Seq() Seq { return n.seq }

// NumAttrs returns how many attributes n has.
func (n *Node) NumAttrs() int { return int(n.nattr) }

// Attrs returns n's attributes in definition order. The slice is n's own
// storage when the attributes lie in one run of its sequence, as up to 64
// always do, and a copy otherwise: it must not be written, and what it holds
// after n's sequence changes is undefined.
func (n *Node) Attrs() []*Node {
	k := int(n.nattr)
	if k == 0 {
		return nil
	}
	if run, _ := n.seq.Run(0); len(run) >= k {
		return run[:k:k]
	}
	out := make([]*Node, 0, k)
	for len(out) < k {
		run, _ := n.seq.Run(len(out)) // a chunk, starting where out ends
		out = append(out, run[:min(len(run), k-len(out))]...)
	}
	return out
}

// UniformChildren reports that every child of n is an element and that all
// of them share one name (see Node). False promises nothing: the children
// may be uniform all the same.
func (n *Node) UniformChildren() bool { return n.uniform }

// UniformSound reports whether n's uniform bit holds: it is false, or n's
// children are elements of one name. Publication's debug check asks it of
// every node.
func (n *Node) UniformSound() bool {
	for i := 0; n.uniform && i < n.NumChildren(); i++ {
		if !sameKind(n.Child(0), n.Child(i)) {
			return false
		}
	}
	return true
}

// sameKind reports whether c, as a child beside x, keeps a parent's children
// uniform.
func sameKind(x, c *Node) bool { return c.Kind == Element && c.Name == x.Name }

// uniformOf reports whether kids — children, attributes excluded — are
// elements of one name.
func uniformOf(kids []*Node) bool {
	for _, c := range kids {
		if !sameKind(kids[0], c) {
			return false
		}
	}
	return true
}

// NumChildren returns how many children n has, attributes not counted.
func (n *Node) NumChildren() int { return n.seq.Len() - int(n.nattr) }

// Child returns child i (0-based) of n. It panics when i is out of range.
func (n *Node) Child(i int) *Node {
	if i < 0 {
		panic("xmltree: child position out of range")
	}
	return n.seq.At(int(n.nattr) + i)
}

// AppendChildren appends n's children, in order, to dst.
func (n *Node) AppendChildren(dst []*Node) []*Node {
	k := int(n.nattr)
	if k == 0 {
		return n.seq.AppendTo(dst)
	}
	for i := k; i < n.seq.Len(); {
		run, first := n.seq.Run(i)
		dst = append(dst, run[i-first:]...)
		i = first + len(run)
	}
	return dst
}

// SetAttr sets (or replaces) an attribute on an element and returns the
// attribute node; a new one goes behind the others, in front of the
// children. It panics if n is not an element.
func (n *Node) SetAttr(name, value string) *Node {
	if n.Kind != Element {
		panic("xmltree: SetAttr on non-element node")
	}
	for _, a := range n.Attrs() {
		if a.Name == name {
			a.Data = value
			return a
		}
	}
	a := &Node{Kind: Attribute, Name: name, Data: value, Parent: n}
	n.seq.Insert(int(n.nattr), a)
	n.nattr++
	return a
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs() {
		if a.Name == name {
			return a.Data, true
		}
	}
	return "", false
}

// AppendChild attaches c as the last child of n. It panics if c already has a
// parent or if n cannot hold children.
func (n *Node) AppendChild(c *Node) {
	n.InsertChildAt(n.NumChildren(), c)
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
	n.PutChild(i, c)
	c.Parent = n
}

// RemoveChild detaches the child at position i and returns it. The removal
// is cascading in the sense of the paper (§3.2): the whole subtree rooted at
// the child leaves the document.
func (n *Node) RemoveChild(i int) *Node {
	c := n.TakeChild(i)
	c.Parent = nil
	return c
}

// TakeChild removes the child at position i from n's sequence and returns
// it without writing it: its Parent is left as it was. It is RemoveChild for
// a writer that may not write the child, such as a fork that shares it with
// the epoch it came from; PutChild undoes it.
func (n *Node) TakeChild(i int) *Node {
	if i < 0 || i >= n.NumChildren() {
		panic("xmltree: remove position out of range")
	}
	c := n.seq.At(int(n.nattr) + i)
	n.seq.Delete(int(n.nattr) + i)
	return c
}

// PutChild makes c the child at position i of n without writing c (see
// TakeChild). It panics if i is out of range.
func (n *Node) PutChild(i int, c *Node) {
	nc := n.NumChildren()
	if i < 0 || i > nc {
		panic("xmltree: insert position out of range")
	}
	if nc == 0 {
		n.uniform = c.Kind == Element
	} else if n.uniform {
		n.uniform = sameKind(n.Child(0), c)
	}
	n.seq.Insert(int(n.nattr)+i, c)
}

// SetEntry replaces entry i of n's sequence — attributes first, as Seq
// counts — with x, writing neither x nor the node it replaces: how a
// path-copying writer re-points the entry at its copy of that node. It
// panics when i is out of range.
func (n *Node) SetEntry(i int, x *Node) {
	if n.uniform && i >= int(n.nattr) {
		n.uniform = sameKind(n.seq.At(i), x)
	}
	n.seq.Set(i, x)
}

// Detach removes n from its parent. It is a no-op for parentless nodes.
func (n *Node) Detach() {
	p := n.Parent
	if p == nil {
		return
	}
	if n.Kind == Attribute {
		p.seq.Delete(n.Index())
		p.nattr--
		n.Parent = nil
		return
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
	i := p.seq.Index(n)
	if n.Kind != Attribute {
		i -= int(p.nattr)
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
// (in definition order) when withAttrs, then regular children: with
// attributes, n's whole sequence — and returns the extended slice.
func (n *Node) StructuralChildren(dst []*Node, withAttrs bool) []*Node {
	if withAttrs {
		return n.seq.AppendTo(dst)
	}
	return n.AppendChildren(dst)
}

// StructuralFanout returns how many children StructuralChildren yields.
func (n *Node) StructuralFanout(withAttrs bool) int {
	if withAttrs {
		return n.seq.Len()
	}
	return n.NumChildren()
}

// FirstChildElement returns the first child element with the given name
// ("" matches any element), or nil.
func (n *Node) FirstChildElement(name string) *Node {
	for i := 0; i < n.NumChildren(); i++ {
		if c := n.Child(i); c.Kind == Element && (name == "" || c.Name == name) {
			return c
		}
	}
	return nil
}

// ChildElements returns all child elements with the given name ("" matches
// any element).
func (n *Node) ChildElements(name string) []*Node {
	var out []*Node
	for i := 0; i < n.NumChildren(); i++ {
		if c := n.Child(i); c.Kind == Element && (name == "" || c.Name == name) {
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
	for i := 0; i < n.NumChildren(); i++ {
		n.Child(i).Walk(fn)
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
	for i := 0; i < n.seq.Len(); i++ {
		n.seq.At(i).WalkFull(fn) // the attributes first
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
	c := n.copyAlone()
	if m != nil {
		m[n] = c
	}
	for i := 0; i < n.seq.Len(); i++ {
		xc := n.seq.At(i).cloneInto(m)
		xc.Parent = c
		c.seq.Append(xc)
	}
	return c
}

// copyAlone returns a copy of n's header, payload and stamp: no Parent, an
// empty sequence (it keeps n's attribute count and uniform bit, for the
// caller to fill with the same children).
func (n *Node) copyAlone() *Node {
	return &Node{Kind: n.Kind, root: n.root, uniform: n.uniform, nattr: n.nattr, Name: n.Name, Data: n.Data, num: n.num}
}

// ShallowCopy returns a copy of n alone, for path-copying writers: the copy
// has its own sequence holding n's children themselves (Seq.Share: a wide
// list's chunks are shared until the copy writes them), its own copies of
// n's attributes in front of them (an attribute is reached only through its
// element, so the two are copied together), n's stamp, and no Parent.
func (n *Node) ShallowCopy() *Node {
	c := n.copyAlone()
	c.seq = n.seq.Share()
	for i := 0; i < int(n.nattr); i++ {
		a := n.seq.At(i).copyAlone()
		a.Parent = c
		c.seq.Set(i, a)
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
	return fmt.Sprintf("%s[%d]", label, parent.seq.Index(n)-int(parent.nattr))
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
