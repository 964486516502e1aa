// Package prepost implements two interval-style numbering baselines from
// the paper's related work (§6):
//
//   - the preorder/postorder scheme of Dietz [3]: each node is labeled
//     (pre, post); anc is an ancestor of desc iff pre(anc) < pre(desc) and
//     post(anc) > post(desc);
//   - the extended-preorder scheme of Li and Moon [6]: each node is labeled
//     (order, size); anc is an ancestor of desc iff
//     order(anc) < order(desc) ≤ order(anc) + size(anc), with slack in the
//     size intervals to absorb insertions.
//
// Unlike the UID family, these schemes can only *compare* two known
// identifiers: the parent's identifier is not computable from a child's by
// arithmetic, so Parent requires an auxiliary structure (here, a stored
// parent label per node). This is exactly the contrast the paper draws
// ("Whereas other numbering schemes only can compare two identifiers, …
// the UID technique has an interesting property whereby the parent node can
// be determined based on the identifier of the child node.").
package prepost

import (
	"errors"
	"fmt"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// ID is a Dietz-style (pre, post) label. It implements scheme.ID.
// Par carries the stored preorder rank of the parent (-1 for the root),
// because pre/post labels alone cannot produce the parent identifier.
type ID struct {
	Pre  int64
	Post int64
	Par  int64
}

// String renders the label as "(pre, post)".
func (id ID) String() string { return fmt.Sprintf("(%d, %d)", id.Pre, id.Post) }

// Key returns an 8-byte big-endian encoding of the preorder rank; preorder
// rank equals document order, so key order is document order.
func (id ID) Key() []byte {
	var b [8]byte
	v := uint64(id.Pre)
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return b[:]
}

// Numbering is a pre/post numbering of one document snapshot. It implements
// scheme.Scheme (not AxisScheme: pre/post supports ancestor tests and range
// scans, but cannot generate parent or sibling identifiers arithmetically).
type Numbering struct {
	root  *xmltree.Node
	ids   map[*xmltree.Node]ID
	byPre []*xmltree.Node // byPre[pre] = node
}

// Build numbers doc by preorder and postorder traversal ranks.
func Build(doc *xmltree.Node) (*Numbering, error) {
	root := doc
	if doc.Kind == xmltree.Document {
		root = doc.DocumentElement()
		if root == nil {
			return nil, errors.New("prepost: document has no root element")
		}
	}
	n := &Numbering{root: root, ids: make(map[*xmltree.Node]ID)}
	var pre, post int64
	var walk func(d *xmltree.Node, par int64)
	walk = func(d *xmltree.Node, par int64) {
		myPre := pre
		pre++
		n.byPre = append(n.byPre, d)
		for i := 0; i < d.Children.Len(); i++ {
			walk(d.Children.At(i), myPre)
		}
		n.ids[d] = ID{Pre: myPre, Post: post, Par: par}
		post++
	}
	walk(root, -1)
	return n, nil
}

// Name implements scheme.Scheme.
func (n *Numbering) Name() string { return "prepost" }

// Size returns the number of numbered nodes.
func (n *Numbering) Size() int { return len(n.ids) }

// IDOf implements scheme.Scheme.
func (n *Numbering) IDOf(node *xmltree.Node) (scheme.ID, bool) {
	id, ok := n.ids[node]
	if !ok {
		return nil, false
	}
	return id, true
}

// NodeOf implements scheme.Scheme.
func (n *Numbering) NodeOf(id scheme.ID) (*xmltree.Node, bool) {
	pid := id.(ID)
	if pid.Pre < 0 || pid.Pre >= int64(len(n.byPre)) {
		return nil, false
	}
	node := n.byPre[pid.Pre]
	if got := n.ids[node]; got != pid {
		return nil, false
	}
	return node, true
}

// Parent implements scheme.Scheme. For pre/post the parent label must be
// looked up through the stored parent rank — it is not computable from
// (pre, post) alone, which is the structural weakness the UID family
// addresses.
func (n *Numbering) Parent(id scheme.ID) (scheme.ID, bool) {
	pid := id.(ID)
	if pid.Par < 0 {
		return nil, false
	}
	p := n.byPre[pid.Par]
	return n.ids[p], true
}

// IsAncestor implements scheme.Scheme with the Dietz criterion: pure label
// comparison, O(1).
func (n *Numbering) IsAncestor(anc, desc scheme.ID) bool {
	a := anc.(ID)
	d := desc.(ID)
	return a.Pre < d.Pre && a.Post > d.Post
}

// CompareOrder implements scheme.Scheme: preorder rank is document order.
func (n *Numbering) CompareOrder(a, b scheme.ID) int {
	av := a.(ID).Pre
	bv := b.(ID).Pre
	switch {
	case av < bv:
		return -1
	case av > bv:
		return 1
	default:
		return 0
	}
}

// DescendantRange returns the preorder interval (lo, hi] such that every
// node with lo < pre ≤ hi is a proper descendant of id — the containment
// range scan used by interval schemes for the descendant axis.
func (n *Numbering) DescendantRange(id scheme.ID) (lo, hi int64) {
	pid := id.(ID)
	lo = pid.Pre
	hi = pid.Pre
	// Descendants of a node are exactly the nodes with pre > pid.Pre and
	// post < pid.Post; by preorder contiguity they occupy
	// [pid.Pre+1, pid.Pre+subtreeSize-1].
	node := n.byPre[pid.Pre]
	hi = pid.Pre + int64(xmltree.CountNodes(node)) - 1
	return lo, hi
}

// Descendants returns the identifiers of the proper descendants of id in
// document order via the preorder range scan.
func (n *Numbering) Descendants(id scheme.ID) []scheme.ID {
	lo, hi := n.DescendantRange(id)
	out := make([]scheme.ID, 0, hi-lo)
	for p := lo + 1; p <= hi; p++ {
		out = append(out, n.ids[n.byPre[p]])
	}
	return out
}
