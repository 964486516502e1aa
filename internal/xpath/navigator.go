package xpath

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// Visit receives one axis candidate; returning false stops the walk.
type Visit func(*xmltree.Node) bool

// Navigator supplies the positional axes over the element tree and the
// document order of its nodes. The engine is generic over it:
// SchemeNavigator derives both from ruid identifier arithmetic (the paper's
// approach), PointerNavigator from parent/child pointers (the ground
// truth); the scheme bake-off brings a navigator over any boxed numbering
// scheme (internal/scheme).
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
	// ChildAt returns the j-th child of n (1-based, attributes excluded), or
	// false when n has fewer than j: the one read a positional child step
	// makes where the k-th candidate is known to be the k-th child.
	ChildAt(n *xmltree.Node, j int) (*xmltree.Node, bool)
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

// each visits children lo to hi-1 of p front to back, or back to front when
// rev.
func each(p *xmltree.Node, lo, hi int, rev bool, visit Visit) bool {
	for i := lo; i < hi; i++ {
		at := i
		if rev {
			at = lo + hi - 1 - i
		}
		if !visit(p.Child(at)) {
			return false
		}
	}
	return true
}

// all visits every child of p in order.
func all(p *xmltree.Node, visit Visit) bool { return each(p, 0, p.NumChildren(), false, visit) }

// subtrees visits children lo to hi-1 of p, each with its whole subtree,
// attributes excluded: in document order, or — back to front, each node after
// its subtree — in reverse document order.
func subtrees(p *xmltree.Node, lo, hi int, rev bool, visit Visit) bool {
	return each(p, lo, hi, rev, func(x *xmltree.Node) bool {
		if rev {
			return below(x, true, visit) && visit(x)
		}
		return visit(x) && below(x, false, visit)
	})
}

// below visits the proper descendants of x.
func below(x *xmltree.Node, rev bool, visit Visit) bool {
	return subtrees(x, 0, x.NumChildren(), rev, visit)
}

// siblings returns n's parent, n's position among its children and their
// count: the children in front of the position and behind it are n's
// siblings. Attributes and the document node have none (a nil parent, which
// each visits nothing of).
func siblings(n *xmltree.Node) (parent *xmltree.Node, at, end int) {
	if n.Parent == nil || n.Kind == xmltree.Attribute {
		return nil, 0, 0
	}
	return n.Parent, n.Index(), n.Parent.NumChildren()
}

// Children implements Navigator.
func (PointerNavigator) Children(n *xmltree.Node, visit Visit) bool {
	return all(n, visit)
}

// ChildAt implements Navigator.
func (PointerNavigator) ChildAt(n *xmltree.Node, j int) (*xmltree.Node, bool) {
	if j < 1 || j > n.NumChildren() {
		return nil, false
	}
	return n.Child(j - 1), true
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

// SchemeNavigator derives the axes from the ruid identifiers the nodes carry:
// the numbering walks its own clustered index and hands over the node
// sitting at each slot, so no identifier is generated, boxed or resolved on
// either side of a step, and a walk the consumer stops early visits nothing
// past the stop.
type SchemeNavigator struct {
	S *core.Numbering
}

// Name implements Navigator.
func (SchemeNavigator) Name() string { return "ruid" }

// Parent implements Navigator.
func (v SchemeNavigator) Parent(n *xmltree.Node) (*xmltree.Node, bool) { return v.S.ParentNode(n) }

// Children implements Navigator.
func (v SchemeNavigator) Children(n *xmltree.Node, visit Visit) bool {
	return v.S.VisitChildren(n, visit)
}

// ChildAt implements Navigator by slot arithmetic.
func (v SchemeNavigator) ChildAt(n *xmltree.Node, j int) (*xmltree.Node, bool) {
	return v.S.ChildAt(n, j)
}

// Descendants implements Navigator.
func (v SchemeNavigator) Descendants(n *xmltree.Node, visit Visit) bool {
	return v.S.VisitDescendants(n, visit)
}

// Ancestors implements Navigator.
func (v SchemeNavigator) Ancestors(n *xmltree.Node, visit Visit) bool {
	return v.S.VisitAncestors(n, visit)
}

// FollowingSiblings implements Navigator.
func (v SchemeNavigator) FollowingSiblings(n *xmltree.Node, visit Visit) bool {
	return v.S.VisitFollowingSiblings(n, visit)
}

// PrecedingSiblings implements Navigator.
func (v SchemeNavigator) PrecedingSiblings(n *xmltree.Node, visit Visit) bool {
	return v.S.VisitPrecedingSiblings(n, visit)
}

// Following implements Navigator.
func (v SchemeNavigator) Following(n *xmltree.Node, visit Visit) bool {
	return v.S.VisitFollowing(n, visit)
}

// Preceding implements Navigator.
func (v SchemeNavigator) Preceding(n *xmltree.Node, visit Visit) bool {
	return v.S.VisitPreceding(n, visit)
}

// InOrder implements Navigator from the identifiers the nodes carry.
func (v SchemeNavigator) InOrder(doc *xmltree.Node, ns []*xmltree.Node) []*xmltree.Node {
	return OrderByLabels(doc, ns, v.S.CompareNodes)
}

// OrderByLabels returns ns — nodes of any kind from the tree under the
// Document node doc — in document order and without duplicates, reordering
// ns in place: the InOrder of a navigator whose numbering orders the nodes
// it labels, where label compares two nodes by their labels (ok false when
// either carries none). One pass of comparisons finds a set already in
// order — the common case — and only a set that is not gets sorted;
// duplicates then sit side by side.
//
// An attribute stands directly after its element (in attribute-list order),
// and so wherever that element stands relative to any other node; what then
// still carries no label is the Document node or a comment or processing
// instruction beside the document element, placed by its position at the
// top level.
func OrderByLabels(doc *xmltree.Node, ns []*xmltree.Node, label func(a, b *xmltree.Node) (int, bool)) []*xmltree.Node {
	order := func(a, b *xmltree.Node) int {
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
		if o, ok := label(ea, eb); ok {
			return o
		}
		return cmp.Compare(topLevel(doc, ea), topLevel(doc, eb))
	}
	if !slices.IsSortedFunc(ns, order) {
		slices.SortFunc(ns, order)
	}
	return slices.Compact(ns)
}

// topLevel returns where n stands at the top level of the document: -1 for
// the Document node itself, its position for a child of the Document node,
// and the document element's position for every node below that.
func topLevel(doc, n *xmltree.Node) int {
	if n == doc {
		return -1
	}
	root := 0
	for i := 0; i < doc.NumChildren(); i++ {
		c := doc.Child(i)
		if c == n {
			return i
		}
		if c.Kind == xmltree.Element {
			root = i
		}
	}
	return root
}
