package xpath

import (
	"cmp"
	"fmt"
	"os"
	"slices"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// Visit receives one axis candidate; returning false stops the walk.
type Visit func(*xmltree.Node) bool

// Navigator supplies the positional axes over the element tree and the
// document order of its nodes. The engine is generic over it:
// SchemeNavigator derives both from identifier arithmetic (the paper's
// approach), PointerNavigator from parent/child pointers (the ground
// truth).
//
// An axis is walked, not returned: each method hands visit the nodes of the
// axis of n in axis order — document order for the forward axes, nearest
// first for Ancestors, PrecedingSiblings and Preceding — until visit returns
// false, and reports whether the walk ran to its end. A consumer that wants
// the k-th candidate pays for k.
type Navigator interface {
	// Name identifies the navigator in benchmark output.
	Name() string
	Parent(n *xmltree.Node) (*xmltree.Node, bool)
	Children(n *xmltree.Node, visit Visit) bool
	Descendants(n *xmltree.Node, visit Visit) bool
	Ancestors(n *xmltree.Node, visit Visit) bool
	FollowingSiblings(n *xmltree.Node, visit Visit) bool
	PrecedingSiblings(n *xmltree.Node, visit Visit) bool
	Following(n *xmltree.Node, visit Visit) bool
	Preceding(n *xmltree.Node, visit Visit) bool
	// InOrder returns ns — nodes of any kind from the tree under the
	// Document node doc — in document order and without duplicates; it may
	// reorder ns in place.
	InOrder(doc *xmltree.Node, ns []*xmltree.Node) []*xmltree.Node
}

// PointerNavigator provides the axes by direct pointer navigation over the
// xmltree ground truth. It is the reference the scheme-driven navigator is
// validated against, and the "scan the tree" baseline in the benchmarks.
type PointerNavigator struct{}

// Name implements Navigator.
func (PointerNavigator) Name() string { return "pointer" }

// Parent implements Navigator; the synthetic Document node does not count.
func (PointerNavigator) Parent(n *xmltree.Node) (*xmltree.Node, bool) {
	if n.Parent == nil || n.Parent.Kind == xmltree.Document {
		return nil, false
	}
	return n.Parent, true
}

// each visits entries lo to hi-1 of ns front to back, or back to front when
// rev.
func each(ns xmltree.Seq, lo, hi int, rev bool, visit Visit) bool {
	for i := lo; i < hi; i++ {
		at := i
		if rev {
			at = lo + hi - 1 - i
		}
		if !visit(ns.At(at)) {
			return false
		}
	}
	return true
}

// all visits every entry of ns in order.
func all(ns xmltree.Seq, visit Visit) bool { return each(ns, 0, ns.Len(), false, visit) }

// subtrees visits entries lo to hi-1 of ns, each with its whole subtree,
// attributes excluded: in document order, or — back to front, each node after
// its subtree — in reverse document order.
func subtrees(ns xmltree.Seq, lo, hi int, rev bool, visit Visit) bool {
	return each(ns, lo, hi, rev, func(x *xmltree.Node) bool {
		if rev {
			return below(x, true, visit) && visit(x)
		}
		return visit(x) && below(x, false, visit)
	})
}

// below visits the proper descendants of x.
func below(x *xmltree.Node, rev bool, visit Visit) bool {
	return subtrees(x.Children, 0, x.Children.Len(), rev, visit)
}

// siblings returns the child list n sits in, n's position there and the
// list's length: the entries in front of the position and behind it are n's
// siblings. Attributes and the document node have none.
func siblings(n *xmltree.Node) (list xmltree.Seq, at, end int) {
	if n.Parent == nil || n.Kind == xmltree.Attribute {
		return xmltree.Seq{}, 0, 0
	}
	return n.Parent.Children, n.Index(), n.Parent.Children.Len()
}

// Children implements Navigator.
func (PointerNavigator) Children(n *xmltree.Node, visit Visit) bool {
	return all(n.Children, visit)
}

// Descendants implements Navigator.
func (PointerNavigator) Descendants(n *xmltree.Node, visit Visit) bool {
	return below(n, false, visit)
}

// Ancestors implements Navigator.
func (PointerNavigator) Ancestors(n *xmltree.Node, visit Visit) bool {
	for p := n.Parent; p != nil && p.Kind != xmltree.Document; p = p.Parent {
		if !visit(p) {
			return false
		}
	}
	return true
}

// FollowingSiblings implements Navigator.
func (PointerNavigator) FollowingSiblings(n *xmltree.Node, visit Visit) bool {
	list, at, end := siblings(n)
	return each(list, at+1, end, false, visit)
}

// PrecedingSiblings implements Navigator.
func (PointerNavigator) PrecedingSiblings(n *xmltree.Node, visit Visit) bool {
	list, at, _ := siblings(n)
	return each(list, 0, at, true, visit)
}

// Following implements Navigator: for n and each ancestor in turn, the
// following siblings and their subtrees.
func (PointerNavigator) Following(n *xmltree.Node, visit Visit) bool {
	for ; n != nil; n = n.Parent {
		if list, at, end := siblings(n); !subtrees(list, at+1, end, false, visit) {
			return false
		}
	}
	return true
}

// Preceding implements Navigator: the mirror image of Following.
func (PointerNavigator) Preceding(n *xmltree.Node, visit Visit) bool {
	for ; n != nil; n = n.Parent {
		if list, at, _ := siblings(n); !subtrees(list, 0, at, true, visit) {
			return false
		}
	}
	return true
}

// InOrder implements Navigator by the tree's own order: one walk from the
// top that keeps the members of ns as it meets them. It follows no Parent
// pointer, so it holds on a path-copied tree (xmltree.ShallowCopy) too.
func (PointerNavigator) InOrder(doc *xmltree.Node, ns []*xmltree.Node) []*xmltree.Node {
	if len(ns) < 2 {
		return ns
	}
	member := make(map[*xmltree.Node]bool, len(ns))
	for _, n := range ns {
		member[n] = true
	}
	out := ns[:0]
	doc.WalkFull(func(x *xmltree.Node) bool {
		if member[x] {
			out = append(out, x)
		}
		return len(out) < len(member) // nothing left to find below
	})
	return out
}

// nodeAxes is the in-place form of a scheme's axes: the scheme walks its
// own clustered index and hands over the node sitting at each slot, so no
// identifier is generated, boxed or resolved on either side of a step.
// *core.Numbering satisfies it.
type nodeAxes interface {
	ParentNode(c *xmltree.Node) (*xmltree.Node, bool)
	VisitChildren(c *xmltree.Node, visit func(*xmltree.Node) bool) bool
	VisitDescendants(c *xmltree.Node, visit func(*xmltree.Node) bool) bool
	VisitAncestors(c *xmltree.Node, visit func(*xmltree.Node) bool) bool
	VisitFollowingSiblings(c *xmltree.Node, visit func(*xmltree.Node) bool) bool
	VisitPrecedingSiblings(c *xmltree.Node, visit func(*xmltree.Node) bool) bool
	VisitFollowing(c *xmltree.Node, visit func(*xmltree.Node) bool) bool
	VisitPreceding(c *xmltree.Node, visit func(*xmltree.Node) bool) bool
	CompareNodes(a, b *xmltree.Node) (order int, ok bool)
}

// SchemeNavigator adapts a numbering scheme's identifier-arithmetic axes to
// the Navigator interface. A scheme that walks its axes in place (nodeAxes —
// ruid) is used that way; one that only generates boxed identifier lists
// (scheme.AxisScheme — uid, nestedint) has them resolved back to nodes one
// at a time, so either way a walk the consumer stops early resolves nothing
// past the stop.
type SchemeNavigator struct {
	S scheme.AxisScheme
}

// debugChecks makes a boxed identifier that resolves to no node a panic
// instead of a shorter answer. Seeded from RUID_DEBUG like the core, index
// and query checks.
var debugChecks = os.Getenv("RUID_DEBUG") != ""

// Name implements Navigator.
func (v SchemeNavigator) Name() string { return v.S.Name() }

// boxed walks one boxed axis of n: generate the identifier list, then
// resolve and visit one identifier at a time, back to front when rev.
func (v SchemeNavigator) boxed(n *xmltree.Node, axis func(scheme.AxisScheme, scheme.ID) []scheme.ID, rev bool, visit Visit) bool {
	id, ok := v.S.IDOf(n)
	if !ok {
		return true
	}
	ids := axis(v.S, id)
	for i := range ids {
		if rev {
			i = len(ids) - 1 - i
		}
		x, ok := v.S.NodeOf(ids[i])
		if !ok {
			if debugChecks {
				panic(fmt.Sprintf("xpath: %s generated identifier %s, which resolves to no node", v.S.Name(), ids[i]))
			}
			continue
		}
		if !visit(x) {
			return false
		}
	}
	return true
}

// Parent implements Navigator.
func (v SchemeNavigator) Parent(n *xmltree.Node) (*xmltree.Node, bool) {
	if w, ok := v.S.(nodeAxes); ok {
		return w.ParentNode(n)
	}
	id, ok := v.S.IDOf(n)
	if !ok {
		return nil, false
	}
	pid, ok := v.S.Parent(id)
	if !ok {
		return nil, false
	}
	return v.S.NodeOf(pid)
}

// Children implements Navigator.
func (v SchemeNavigator) Children(n *xmltree.Node, visit Visit) bool {
	if w, ok := v.S.(nodeAxes); ok {
		return w.VisitChildren(n, visit)
	}
	return v.boxed(n, scheme.AxisScheme.Children, false, visit)
}

// Descendants implements Navigator.
func (v SchemeNavigator) Descendants(n *xmltree.Node, visit Visit) bool {
	if w, ok := v.S.(nodeAxes); ok {
		return w.VisitDescendants(n, visit)
	}
	return v.boxed(n, scheme.AxisScheme.Descendants, false, visit)
}

// Ancestors implements Navigator.
func (v SchemeNavigator) Ancestors(n *xmltree.Node, visit Visit) bool {
	if w, ok := v.S.(nodeAxes); ok {
		return w.VisitAncestors(n, visit)
	}
	return v.boxed(n, scheme.AxisScheme.Ancestors, false, visit)
}

// FollowingSiblings implements Navigator.
func (v SchemeNavigator) FollowingSiblings(n *xmltree.Node, visit Visit) bool {
	if w, ok := v.S.(nodeAxes); ok {
		return w.VisitFollowingSiblings(n, visit)
	}
	return v.boxed(n, scheme.AxisScheme.FollowingSiblings, false, visit)
}

// PrecedingSiblings implements Navigator.
func (v SchemeNavigator) PrecedingSiblings(n *xmltree.Node, visit Visit) bool {
	if w, ok := v.S.(nodeAxes); ok {
		return w.VisitPrecedingSiblings(n, visit)
	}
	return v.boxed(n, scheme.AxisScheme.PrecedingSiblings, false, visit)
}

// Following implements Navigator.
func (v SchemeNavigator) Following(n *xmltree.Node, visit Visit) bool {
	if w, ok := v.S.(nodeAxes); ok {
		return w.VisitFollowing(n, visit)
	}
	return v.boxed(n, scheme.AxisScheme.Following, false, visit)
}

// Preceding implements Navigator; scheme.AxisScheme states the boxed list in
// document order, so it is walked back to front.
func (v SchemeNavigator) Preceding(n *xmltree.Node, visit Visit) bool {
	if w, ok := v.S.(nodeAxes); ok {
		return w.VisitPreceding(n, visit)
	}
	return v.boxed(n, scheme.AxisScheme.Preceding, true, visit)
}

// InOrder implements Navigator from the identifiers the nodes carry: one
// pass of comparisons finds a set already in order — the common case — and
// only a set that is not gets sorted; duplicates then sit side by side.
func (v SchemeNavigator) InOrder(doc *xmltree.Node, ns []*xmltree.Node) []*xmltree.Node {
	cmp := func(a, b *xmltree.Node) int { return v.compare(doc, a, b) }
	if !slices.IsSortedFunc(ns, cmp) {
		slices.SortFunc(ns, cmp)
	}
	return slices.Compact(ns)
}

// compare is document order over everything a node-set can hold. The
// scheme orders the nodes it numbers, from their labels. An attribute
// stands directly after its element (in attribute-list order), and so
// wherever that element stands relative to any other node; what then still
// carries no label is the Document node or a comment or processing
// instruction beside the document element, placed by its position at the
// top level.
func (v SchemeNavigator) compare(doc, a, b *xmltree.Node) int {
	if a == b {
		return 0
	}
	ea, eb := a, b
	if a.Kind == xmltree.Attribute {
		ea = a.Parent
	}
	if b.Kind == xmltree.Attribute {
		eb = b.Parent
	}
	if ea == eb {
		if a == ea || (b != eb && a.Index() < b.Index()) {
			return -1
		}
		return 1
	}
	if order, ok := v.labelOrder(ea, eb); ok {
		return order
	}
	return cmp.Compare(topLevel(doc, ea), topLevel(doc, eb))
}

// labelOrder compares two nodes by the identifiers they carry; ok is false
// when either carries none.
func (v SchemeNavigator) labelOrder(a, b *xmltree.Node) (order int, ok bool) {
	if w, ok := v.S.(nodeAxes); ok {
		return w.CompareNodes(a, b)
	}
	ia, oka := v.S.IDOf(a)
	ib, okb := v.S.IDOf(b)
	if !oka || !okb {
		return 0, false
	}
	return v.S.CompareOrder(ia, ib), true
}

// topLevel returns where n stands at the top level of the document: -1 for
// the Document node itself, its position for a child of the Document node,
// and the document element's position for every node below that.
func topLevel(doc, n *xmltree.Node) int {
	if n == doc {
		return -1
	}
	root := 0
	for i := 0; i < doc.Children.Len(); i++ {
		c := doc.Children.At(i)
		if c == n {
			return i
		}
		if c.Kind == xmltree.Element {
			root = i
		}
	}
	return root
}
