package prepost

import (
	"errors"
	"fmt"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// LMID is a Li–Moon extended-preorder label (order, size): the descendants
// of a node occupy the open interval (order, order+size]. Gaps left in the
// size budget absorb insertions without relabeling.
type LMID struct {
	Order int64
	Size  int64
	Par   int64 // order of the parent, -1 for the root (stored, not computed)
}

// String renders the label as "<order, size>".
func (id LMID) String() string { return fmt.Sprintf("<%d, %d>", id.Order, id.Size) }

// Key returns an 8-byte big-endian encoding of the order value; order is
// assigned in document order.
func (id LMID) Key() []byte {
	var b [8]byte
	v := uint64(id.Order)
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return b[:]
}

// LiMoon is an extended-preorder numbering of one document snapshot with a
// configurable slack factor. It implements scheme.Scheme.
type LiMoon struct {
	root    *xmltree.Node
	slack   int64
	ids     map[*xmltree.Node]LMID
	byOrder map[int64]*xmltree.Node
}

// BuildLiMoon numbers doc with extended preorder. slack ≥ 1 multiplies each
// subtree's interval so that slack−1 extra slots per node remain for future
// insertions (slack 1 = tight intervals).
func BuildLiMoon(doc *xmltree.Node, slack int64) (*LiMoon, error) {
	root := doc
	if doc.Kind == xmltree.Document {
		root = doc.DocumentElement()
		if root == nil {
			return nil, errors.New("prepost: document has no root element")
		}
	}
	if slack < 1 {
		slack = 1
	}
	n := &LiMoon{
		root:    root,
		slack:   slack,
		ids:     make(map[*xmltree.Node]LMID),
		byOrder: make(map[int64]*xmltree.Node),
	}
	// Layout: each child starts `slack` slots after the end of the previous
	// child's interval (or after the parent's own order), so slack−1 free
	// slots sit in every sibling gap — exactly where future insertions
	// land. A node's size spans its children and the interleaved gaps; the
	// free slots carry no labels, so the containment test is unaffected.
	var assign func(d *xmltree.Node, order int64, par int64) int64 // returns size
	assign = func(d *xmltree.Node, order int64, par int64) int64 {
		next := order + slack
		for i := 0; i < d.Children.Len(); i++ {
			cs := assign(d.Children.At(i), next, order)
			next += cs + slack
		}
		size := next - order - 1
		n.ids[d] = LMID{Order: order, Size: size, Par: par}
		n.byOrder[order] = d
		return size
	}
	assign(root, 1, -1)
	return n, nil
}

// Name implements scheme.Scheme.
func (n *LiMoon) Name() string { return "limoon" }

// IDOf implements scheme.Scheme.
func (n *LiMoon) IDOf(node *xmltree.Node) (scheme.ID, bool) {
	id, ok := n.ids[node]
	if !ok {
		return nil, false
	}
	return id, true
}

// NodeOf implements scheme.Scheme.
func (n *LiMoon) NodeOf(id scheme.ID) (*xmltree.Node, bool) {
	node, ok := n.byOrder[id.(LMID).Order]
	if !ok {
		return nil, false
	}
	if n.ids[node] != id.(LMID) {
		return nil, false
	}
	return node, true
}

// Parent implements scheme.Scheme via the stored parent order (not
// computable from the label alone).
func (n *LiMoon) Parent(id scheme.ID) (scheme.ID, bool) {
	lm := id.(LMID)
	if lm.Par < 0 {
		return nil, false
	}
	return n.ids[n.byOrder[lm.Par]], true
}

// IsAncestor implements scheme.Scheme with the Li–Moon containment test:
// order(anc) < order(desc) ≤ order(anc) + size(anc).
func (n *LiMoon) IsAncestor(anc, desc scheme.ID) bool {
	a := anc.(LMID)
	d := desc.(LMID)
	return a.Order < d.Order && d.Order <= a.Order+a.Size
}

// CompareOrder implements scheme.Scheme: order values follow document order.
func (n *LiMoon) CompareOrder(a, b scheme.ID) int {
	av := a.(LMID).Order
	bv := b.(LMID).Order
	switch {
	case av < bv:
		return -1
	case av > bv:
		return 1
	default:
		return 0
	}
}

// InsertChild implements scheme.Updatable for the extended-preorder scheme:
// a single new node is placed in the gap between its would-be neighbors if
// the slack leaves room (no existing label changes); otherwise the whole
// document is relabeled with fresh slack. Inserting a subtree always
// relabels (a contiguous range of the subtree's size would be needed).
func (n *LiMoon) InsertChild(parent *xmltree.Node, pos int, newChild *xmltree.Node) (scheme.UpdateStats, error) {
	pid, ok := n.ids[parent]
	if !ok {
		return scheme.UpdateStats{}, fmt.Errorf("prepost: insert under unnumbered node %s", parent.Path())
	}
	if pos < 0 || pos > parent.Children.Len() {
		return scheme.UpdateStats{}, fmt.Errorf("prepost: insert position %d out of range", pos)
	}
	parent.InsertChildAt(pos, newChild)
	if newChild.Children.Len() == 0 {
		// Gap bounds: after the previous sibling's interval (or the parent's
		// order), before the next sibling's order (or the end of the
		// parent's interval).
		lo := pid.Order
		if pos > 0 {
			prev := n.ids[parent.Children.At(pos-1)]
			lo = prev.Order + prev.Size
		}
		hi := pid.Order + pid.Size + 1
		if pos+1 < parent.Children.Len() {
			hi = n.ids[parent.Children.At(pos+1)].Order
		}
		if hi-lo > 1 {
			o := lo + (hi-lo)/2
			id := LMID{Order: o, Size: 0, Par: pid.Order}
			n.ids[newChild] = id
			n.byOrder[o] = newChild
			return scheme.UpdateStats{}, nil
		}
	}
	return n.relabelAll()
}

// DeleteChild implements scheme.Updatable: the subtree's labels are dropped
// and the freed interval becomes slack; nothing is relabeled.
func (n *LiMoon) DeleteChild(parent *xmltree.Node, pos int) (scheme.UpdateStats, error) {
	if _, ok := n.ids[parent]; !ok {
		return scheme.UpdateStats{}, fmt.Errorf("prepost: delete under unnumbered node %s", parent.Path())
	}
	if pos < 0 || pos >= parent.Children.Len() {
		return scheme.UpdateStats{}, fmt.Errorf("prepost: delete position %d out of range", pos)
	}
	removed := parent.RemoveChild(pos)
	removed.Walk(func(x *xmltree.Node) bool {
		if id, ok := n.ids[x]; ok {
			delete(n.byOrder, id.Order)
			delete(n.ids, x)
		}
		return true
	})
	return scheme.UpdateStats{}, nil
}

// relabelAll rebuilds the whole labeling with fresh slack, counting changed
// labels.
func (n *LiMoon) relabelAll() (scheme.UpdateStats, error) {
	old := n.ids
	fresh, err := BuildLiMoon(n.root, n.slack)
	if err != nil {
		return scheme.UpdateStats{}, err
	}
	n.ids = fresh.ids
	n.byOrder = fresh.byOrder
	st := scheme.UpdateStats{FullRebuild: true}
	for x, oldID := range old {
		if newID, ok := n.ids[x]; ok && newID != oldID {
			st.Relabeled++
		}
	}
	return st, nil
}
