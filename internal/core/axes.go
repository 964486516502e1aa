package core

import (
	"slices"

	"repro/internal/xmltree"
)

// XPath axis generation (§3.5 of the paper). Each routine derives a slot
// range arithmetically from (global, local, root flag), κ and the table K
// and range-scans the (global, local) clustered index — the area's slots
// array — for the slots that exist.
//
// Every scan is written once, as an in-place walk over slots that reads
// nothing but K and stops as soon as its visitor returns false. What a slot
// yields is the visitor's business: the VisitX methods hand over the node
// already sitting there (area.nodes) — what the XPath evaluator consumes,
// context and candidates as nodes, nothing generated, boxed or resolved for
// a consumer that wants the k-th match or only counts — and the AppendX
// methods derive the slot's identifier into a caller-supplied buffer.
// Neither adds a loop of its own. A descent carries its K row along and
// consults K again only where a slot holds the root of a lower area.

// slotVisit is what a walk hands each occupied slot to: node, for a consumer
// of the node sitting there, or slot, for one that wants the slot itself (its
// position in the row's arrays). Returning false stops the walk. A walk over
// nodes calls the consumer's own function, with no adapter in between: the
// call per slot is most of what a scan of a wide row costs.
type slotVisit struct {
	node func(x *xmltree.Node) bool
	slot func(a *area, i int) bool
}

// at hands over position i of row a, which holds x. A node consumer walks
// an XPath axis, and no axis it walks holds an attribute, which a numbering
// WithAttrs enumerates as a leading child (§4).
func (v slotVisit) at(a *area, i int, x *xmltree.Node) bool {
	if v.node != nil {
		return x.Kind == xmltree.Attribute || v.node(x)
	}
	return v.slot(a, i)
}

// childContext returns the area in which id's children are enumerated and
// id's local index inside that area: an area root's children live in its
// own area where it has local index 1; an interior node's children share
// its area and its local index.
func (n *Numbering) childContext(id ID) (g, l int64) {
	if id.Root {
		return id.Global, 1
	}
	return id.Global, id.Local
}

// siblingContext returns the area in which id itself was enumerated and its
// local index there: the upper area for an area root, its own area
// otherwise.
func (n *Numbering) siblingContext(id ID) (g, l int64, ok bool) {
	if id == RootID {
		return 0, 0, false
	}
	if id.Root {
		return (id.Global-2)/n.kappa + 1, id.Local, true
	}
	return id.Global, id.Local, true
}

// resolveLocal turns the occupied slot at position i of area a into a full
// identifier: if the slot holds the root of a lower area (found among the
// frame children of a, as in the paper's rchildren routine), the identifier
// is (childGlobal, slot, true); otherwise (a.global, slot, false).
func (a *area) resolveLocal(i int) ID {
	if cg := a.lower[i]; cg != 0 {
		return ID{Global: cg, Local: a.slots[i], Root: true}
	}
	if i == 0 {
		return a.rootID()
	}
	return ID{Global: a.global, Local: a.slots[i], Root: false}
}

// rootID returns the identifier of the area's own root, the node at slot 1:
// it carries its index in the upper area.
func (a *area) rootID() ID {
	if a.global == 1 {
		return RootID
	}
	return ID{Global: a.global, Local: a.rootLocal, Root: true}
}

// seek returns the position of the first slot ≥ slot in the ascending list
// slots. Every walk, and every node of a deep one, starts here; hand-rolled
// because slices.BinarySearch, which also answers "found", measured 30 %
// slower on the following axis.
func seek(slots []int64, slot int64) int {
	lo, hi := 0, len(slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if slots[mid] < slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// position returns where slot sits in the row's arrays, and whether the row
// has that slot at all.
func (a *area) position(slot int64) (int, bool) {
	i := seek(a.slots, slot)
	return i, i < len(a.slots) && a.slots[i] == slot
}

// childSlots returns the slot range [lo, hi] of the children of the node at
// slot l of an area enumerated with fan-out k.
func childSlots(l, k int64) (lo, hi int64) { return (l-1)*k + 2, l*k + 1 }

// scan is the one slot scan every axis is made of: it visits the occupied
// slots of a within [lo, hi] — ascending, or descending when rev — and, when
// deep, the whole subtree of each with it: after the slot in document
// order, before it in reverse document order. It reports false as soon as
// visit does.
func (n *Numbering) scan(a *area, lo, hi int64, rev, deep bool, visit slotVisit) bool {
	slots := a.slots
	i := seek(slots, lo)
	if i == len(slots) || slots[i] > hi {
		return true // nothing there: a leaf's children, an only child's siblings
	}
	// The range holds at most hi-lo+1 slots, so its end is near.
	rest := slots[i:]
	if width := hi - lo + 1; int64(len(rest)) > width {
		rest = rest[:width]
	}
	count := seek(rest, hi+1) // occupied slots in range
	end, step := i+count, 1
	if rev {
		i, end, step = end-1, i-1, -1
	}
	if visit.node == nil {
		// A walk over slots reads K alone.
		for ; i != end; i += step {
			if !deep {
				if !visit.slot(a, i) {
					return false
				}
			} else if !n.descend(a, i, nil, rev, visit) {
				return false
			}
		}
		return true
	}
	// A walk over nodes: those of neighbouring slots sit in one stretch of the
	// row's sequence (a chunk of 64 in a wide row, the whole of a narrow one);
	// the outer loop fetches a stretch, the inner one walks the slots inside it.
	for i != end {
		run, first := a.nodes.Run(i)
		for j := i - first; i != end && uint(j) < uint(len(run)); i, j = i+step, j+step {
			if !deep {
				if x := run[j]; x.Kind != xmltree.Attribute && !visit.node(x) {
					return false
				}
			} else if !n.descend(a, i, run[j], rev, visit) {
				return false
			}
		}
	}
	return true
}

// descend is one slot of a deep scan: the slot at position i of a, which
// holds x, and the whole subtree below it — after the slot in document order,
// before it in reverse document order.
func (n *Numbering) descend(a *area, i int, x *xmltree.Node, rev bool, visit slotVisit) bool {
	if !rev && !visit.at(a, i, x) {
		return false
	}
	// The children of the node at the slot share its area and slot unless it
	// heads a lower area — the one place a descent consults K.
	sub, l := a, a.slots[i]
	if g := a.lower[i]; g != 0 {
		var ok bool
		if sub, ok = n.krow(g); !ok {
			return true
		}
		l = 1
	}
	clo, chi := childSlots(l, sub.fanout)
	if !n.scan(sub, clo, chi, rev, true, visit) {
		return false
	}
	return !rev || visit.at(a, i, x)
}

// walkBelow visits id's children (rchildren of §3.5) or, when deep, all its
// descendants (rdescendant) in document order.
func (n *Numbering) walkBelow(id ID, deep bool, visit slotVisit) bool {
	g, l := n.childContext(id)
	a, ok := n.krow(g)
	if !ok {
		return true
	}
	lo, hi := childSlots(l, a.fanout)
	return n.scan(a, lo, hi, false, deep, visit)
}

// walkSiblings visits id's following siblings in document order (rfsibling)
// or, when rev, its preceding siblings nearest first (rpsibling); deep takes
// each sibling's subtree along, which is one level of rfollowing/rpreceding.
func (n *Numbering) walkSiblings(id ID, rev, deep bool, visit slotVisit) bool {
	g, l, ok := n.siblingContext(id)
	if !ok {
		return true
	}
	a, ok := n.krow(g)
	if !ok {
		return true
	}
	lo, hi := childSlots((l-2)/a.fanout+1, a.fanout) // the parent's children
	if rev {
		return n.scan(a, lo, l-1, true, deep, visit)
	}
	return n.scan(a, l+1, hi, false, deep, visit)
}

// walkBeyond visits the following axis of id in document order (rfollowing)
// or, when rev, its preceding axis in reverse document order (rpreceding):
// for id and each ancestor in turn, the siblings on that side and their
// whole subtrees. By Lemma 3 this touches only the node's own area and its
// frame ancestors before expanding whole areas.
func (n *Numbering) walkBeyond(id ID, rev bool, visit slotVisit) bool {
	for ok := true; ok; id, ok, _ = n.RParent(id) {
		if !n.walkSiblings(id, rev, true, visit) {
			return false
		}
	}
	return true
}

// walkAncestors visits the ancestors of id nearest first (rancestor): a
// repetition of the parent formula, each parent found at its slot.
func (n *Numbering) walkAncestors(id ID, visit slotVisit) bool {
	for {
		g, l, ok := n.siblingContext(id)
		if !ok {
			return true
		}
		a, ok := n.krow(g)
		if !ok {
			return true
		}
		p := (l-2)/a.fanout + 1
		i, ok := a.position(p)
		if !ok {
			return true // id is not of this numbering: its parent's slot is empty
		}
		var x *xmltree.Node
		if visit.node != nil {
			x = a.nodes.At(i)
		}
		if !visit.at(a, i, x) {
			return false
		}
		if id = (ID{Global: g, Local: p}); p == 1 {
			id = a.rootID()
		}
	}
}

// atNode adapts a node visitor to the walks: it hands over the node sitting
// at each visited slot.
func atNode(visit func(*xmltree.Node) bool) slotVisit { return slotVisit{node: visit} }

// intoIDs adapts an identifier buffer to the walks: it appends the
// identifier of each visited slot.
func intoIDs(dst *[]ID) slotVisit {
	return slotVisit{slot: func(a *area, i int) bool {
		*dst = append(*dst, a.resolveLocal(i))
		return true
	}}
}

// The VisitX methods walk one axis of the numbered node c in place, in axis
// order (reverse axes nearest first), handing visit each node until it
// returns false; they report whether the walk ran to its end. A node outside
// the numbering has no axes, and an attribute is on none of them.

// VisitChildren walks the children of c in document order.
func (n *Numbering) VisitChildren(c *xmltree.Node, visit func(*xmltree.Node) bool) bool {
	id, ok := n.RUID(c)
	return !ok || n.walkBelow(id, false, atNode(visit))
}

// ChildAt returns the j-th child of c (1-based, attributes excluded) by one
// slot read: c's children are the occupied slots of its child range, in
// order, so the j-th sits j-1 positions past the first of them — behind c's
// attributes where the numbering enumerates them as leading children (§4).
// A boundary slot's node is the lower area's root, so no hop through K is
// needed. ok is false when c is outside the numbering or has fewer than j
// children.
func (n *Numbering) ChildAt(c *xmltree.Node, j int) (*xmltree.Node, bool) {
	id, ok := n.RUID(c)
	if !ok || j < 1 {
		return nil, false
	}
	g, l := n.childContext(id)
	a, ok := n.krow(g)
	if !ok {
		return nil, false
	}
	lo, hi := childSlots(l, a.fanout)
	i := seek(a.slots, lo)
	if n.opts.WithAttrs {
		i += c.NumAttrs()
	}
	if j > len(a.slots)-i {
		return nil, false
	}
	if i += j - 1; a.slots[i] > hi {
		return nil, false
	}
	return a.nodes.At(i), true
}

// VisitDescendants walks the descendants of c in document order.
func (n *Numbering) VisitDescendants(c *xmltree.Node, visit func(*xmltree.Node) bool) bool {
	id, ok := n.RUID(c)
	return !ok || n.walkBelow(id, true, atNode(visit))
}

// VisitAncestors walks the ancestors of c, nearest first.
func (n *Numbering) VisitAncestors(c *xmltree.Node, visit func(*xmltree.Node) bool) bool {
	id, ok := n.RUID(c)
	return !ok || n.walkAncestors(id, atNode(visit))
}

// VisitFollowingSiblings walks the following siblings of c in document
// order.
func (n *Numbering) VisitFollowingSiblings(c *xmltree.Node, visit func(*xmltree.Node) bool) bool {
	id, ok := n.RUID(c)
	return !ok || n.walkSiblings(id, false, false, atNode(visit))
}

// VisitPrecedingSiblings walks the preceding siblings of c, nearest first.
func (n *Numbering) VisitPrecedingSiblings(c *xmltree.Node, visit func(*xmltree.Node) bool) bool {
	id, ok := n.RUID(c)
	return !ok || n.walkSiblings(id, true, false, atNode(visit))
}

// VisitFollowing walks the following axis of c in document order.
func (n *Numbering) VisitFollowing(c *xmltree.Node, visit func(*xmltree.Node) bool) bool {
	id, ok := n.RUID(c)
	return !ok || n.walkBeyond(id, false, atNode(visit))
}

// VisitPreceding walks the preceding axis of c, nearest first (reverse
// document order).
func (n *Numbering) VisitPreceding(c *xmltree.Node, visit func(*xmltree.Node) bool) bool {
	id, ok := n.RUID(c)
	return !ok || n.walkBeyond(id, true, atNode(visit))
}

// ParentNode returns the parent of the numbered node c (false for the root
// and for nodes outside the numbering): RParent, read off its slot.
func (n *Numbering) ParentNode(c *xmltree.Node) (p *xmltree.Node, ok bool) {
	n.VisitAncestors(c, func(x *xmltree.Node) bool {
		p, ok = x, true
		return false
	})
	return p, ok
}

// CompareNodes orders two numbered nodes in document order from the
// identifiers they carry (CompareOrderID, the Fig. 10 routine); ok is false
// when either node is outside the numbering.
func (n *Numbering) CompareNodes(a, b *xmltree.Node) (order int, ok bool) {
	ia, oka := n.RUID(a)
	ib, okb := n.RUID(b)
	if !oka || !okb {
		return 0, false
	}
	return n.CompareOrderID(ia, ib), true
}

// The AppendX methods append the identifiers of one axis of id to dst: the
// same walks, deriving each visited slot's identifier from K. The buffer is
// the caller's, so nothing is boxed or allocated.

// AppendAncestors appends the ancestors of id, nearest first, to dst.
func (n *Numbering) AppendAncestors(dst []ID, id ID) []ID {
	n.walkAncestors(id, intoIDs(&dst))
	return dst
}

// AppendChildren appends the children of id to dst in document order.
func (n *Numbering) AppendChildren(dst []ID, id ID) []ID {
	n.walkBelow(id, false, intoIDs(&dst))
	return dst
}

// AppendDescendants appends every descendant of id to dst in document
// (preorder) order.
func (n *Numbering) AppendDescendants(dst []ID, id ID) []ID {
	n.walkBelow(id, true, intoIDs(&dst))
	return dst
}

// AppendFollowingSiblings appends id's following siblings to dst in
// document order.
func (n *Numbering) AppendFollowingSiblings(dst []ID, id ID) []ID {
	n.walkSiblings(id, false, false, intoIDs(&dst))
	return dst
}

// AppendPrecedingSiblings appends id's preceding siblings to dst, nearest
// sibling first per the XPath reverse-axis convention.
func (n *Numbering) AppendPrecedingSiblings(dst []ID, id ID) []ID {
	n.walkSiblings(id, true, false, intoIDs(&dst))
	return dst
}

// AppendFollowing appends the following axis of id to dst in document
// order.
func (n *Numbering) AppendFollowing(dst []ID, id ID) []ID {
	n.walkBeyond(id, false, intoIDs(&dst))
	return dst
}

// AppendPreceding appends the preceding axis of id to dst in document
// order: the walk's order, turned round.
func (n *Numbering) AppendPreceding(dst []ID, id ID) []ID {
	from := len(dst)
	n.walkBeyond(id, true, intoIDs(&dst))
	slices.Reverse(dst[from:])
	return dst
}
