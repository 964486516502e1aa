package core

import (
	"sort"

	"repro/internal/scheme"
)

// XPath axis generation (§3.5 of the paper). Each routine derives candidate
// identifier ranges arithmetically from κ and the table K, then intersects
// them with the existing identifiers via a range scan of the (global,
// local) clustered index; the root-indicator of each candidate is decided
// exactly as the paper describes, by looking the candidate's local slot up
// among the frame children of the context area.
//
// Every axis exists in two forms: a concrete Append* method that writes
// ruid identifiers into a caller-supplied buffer without interface boxing
// (the hot path used by the joins, the twig matcher and the document
// facade), and the boxed scheme.AxisScheme method built on top of it.

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

// resolveLocal turns an existing local slot of area a into a full
// identifier: if the slot holds the root of a lower area (found among the
// frame children of a, as in the paper's rchildren routine), the identifier
// is (childGlobal, slot, true); otherwise (a.global, slot, false).
func (a *area) resolveLocal(slot int64) ID {
	if cg, ok := a.rootByLocal[slot]; ok {
		return ID{Global: cg, Local: slot, Root: true}
	}
	if slot == 1 {
		// The area's own root occupies slot 1; its identifier carries its
		// index in the upper area.
		if a.global == 1 {
			return RootID
		}
		return ID{Global: a.global, Local: a.rootLocal, Root: true}
	}
	return ID{Global: a.global, Local: slot, Root: false}
}

// rangeBounds returns the half-open [start, end) positions of sortedLocals
// covering local slots in [lo, hi], so callers can iterate without an
// intermediate slice.
func (a *area) rangeBounds(lo, hi int64) (start, end int) {
	start = sort.Search(len(a.sortedLocals), func(i int) bool { return a.sortedLocals[i] >= lo })
	end = start
	for end < len(a.sortedLocals) && a.sortedLocals[end] <= hi {
		end++
	}
	return start, end
}

// AppendAncestors appends the ancestors of id (rancestor of §3.5), nearest
// first, to dst: a repetition of RParent.
func (n *Numbering) AppendAncestors(dst []ID, id ID) []ID {
	cur := id
	for {
		p, ok, err := n.RParent(cur)
		if err != nil || !ok {
			return dst
		}
		dst = append(dst, p)
		cur = p
	}
}

// AppendChildren appends the children of id (rchildren of §3.5) to dst in
// document order.
func (n *Numbering) AppendChildren(dst []ID, id ID) []ID {
	g, l := n.childContext(id)
	a, ok := n.krow(g)
	if !ok {
		return dst
	}
	lo := (l-1)*a.fanout + 2
	hi := l*a.fanout + 1
	start, end := a.rangeBounds(lo, hi)
	for i := start; i < end; i++ {
		dst = append(dst, a.resolveLocal(a.sortedLocals[i]))
	}
	return dst
}

// AppendDescendants appends every descendant of id (rdescendant of §3.5)
// to dst in document (preorder) order; crossing into a lower area happens
// automatically when a child resolves to an area root. The slot scan reads
// the clustered index in place — no intermediate slices.
func (n *Numbering) AppendDescendants(dst []ID, id ID) []ID {
	g, l := n.childContext(id)
	a, ok := n.krow(g)
	if !ok {
		return dst
	}
	lo := (l-1)*a.fanout + 2
	hi := l*a.fanout + 1
	start, end := a.rangeBounds(lo, hi)
	for i := start; i < end; i++ {
		c := a.resolveLocal(a.sortedLocals[i])
		dst = append(dst, c)
		dst = n.AppendDescendants(dst, c)
	}
	return dst
}

// AppendFollowingSiblings appends id's following siblings (rfsibling of
// §3.5) to dst in document order.
func (n *Numbering) AppendFollowingSiblings(dst []ID, id ID) []ID {
	g, l, ok := n.siblingContext(id)
	if !ok {
		return dst
	}
	a, ok := n.krow(g)
	if !ok {
		return dst
	}
	p := (l-2)/a.fanout + 1
	hi := p*a.fanout + 1
	start, end := a.rangeBounds(l+1, hi)
	for i := start; i < end; i++ {
		dst = append(dst, a.resolveLocal(a.sortedLocals[i]))
	}
	return dst
}

// AppendPrecedingSiblings appends id's preceding siblings (rpsibling of
// §3.5) to dst, nearest sibling first per the XPath reverse-axis
// convention.
func (n *Numbering) AppendPrecedingSiblings(dst []ID, id ID) []ID {
	g, l, ok := n.siblingContext(id)
	if !ok {
		return dst
	}
	a, ok := n.krow(g)
	if !ok {
		return dst
	}
	p := (l-2)/a.fanout + 1
	lo := (p-1)*a.fanout + 2
	start, end := a.rangeBounds(lo, l-1)
	for i := end - 1; i >= start; i-- {
		dst = append(dst, a.resolveLocal(a.sortedLocals[i]))
	}
	return dst
}

// AppendFollowing appends the following axis of id (rfollowing of §3.5) to
// dst: for each ancestor-or-self, its following siblings and their whole
// subtrees, in document order. By Lemma 3 this touches only the node's own
// area and its frame ancestors before expanding whole following areas.
func (n *Numbering) AppendFollowing(dst []ID, id ID) []ID {
	cur := id
	for {
		if g, l, ok := n.siblingContext(cur); ok {
			a, found := n.krow(g)
			if !found {
				return dst
			}
			p := (l-2)/a.fanout + 1
			hi := p*a.fanout + 1
			start, end := a.rangeBounds(l+1, hi)
			for i := start; i < end; i++ {
				s := a.resolveLocal(a.sortedLocals[i])
				dst = append(dst, s)
				dst = n.AppendDescendants(dst, s)
			}
		}
		p, ok, err := n.RParent(cur)
		if err != nil || !ok {
			return dst
		}
		cur = p
	}
}

// AppendPreceding appends the preceding axis of id (rpreceding of §3.5) to
// dst in document order: walking the ancestor chain from the root down,
// each ancestor-or-self's preceding siblings and their subtrees.
func (n *Numbering) AppendPreceding(dst []ID, id ID) []ID {
	var chainBuf [32]ID
	chain := n.appendAncestorChain(chainBuf[:0], id)
	for i := len(chain) - 1; i >= 0; i-- {
		g, l, ok := n.siblingContext(chain[i])
		if !ok {
			continue
		}
		a, found := n.krow(g)
		if !found {
			continue
		}
		p := (l-2)/a.fanout + 1
		lo := (p-1)*a.fanout + 2
		start, end := a.rangeBounds(lo, l-1)
		for j := start; j < end; j++ { // ascending slots = document order
			s := a.resolveLocal(a.sortedLocals[j])
			dst = append(dst, s)
			dst = n.AppendDescendants(dst, s)
		}
	}
	return dst
}

// box converts a concrete identifier slice to the boxed scheme.ID form.
func box(ids []ID) []scheme.ID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]scheme.ID, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

// Ancestors implements scheme.AxisScheme via AppendAncestors.
func (n *Numbering) Ancestors(id scheme.ID) []scheme.ID {
	return box(n.AppendAncestors(nil, id.(ID)))
}

// Children implements scheme.AxisScheme via AppendChildren.
func (n *Numbering) Children(id scheme.ID) []scheme.ID {
	return box(n.AppendChildren(nil, id.(ID)))
}

// Descendants implements scheme.AxisScheme via AppendDescendants.
func (n *Numbering) Descendants(id scheme.ID) []scheme.ID {
	return box(n.AppendDescendants(nil, id.(ID)))
}

// FollowingSiblings implements scheme.AxisScheme via
// AppendFollowingSiblings.
func (n *Numbering) FollowingSiblings(id scheme.ID) []scheme.ID {
	return box(n.AppendFollowingSiblings(nil, id.(ID)))
}

// PrecedingSiblings implements scheme.AxisScheme via
// AppendPrecedingSiblings.
func (n *Numbering) PrecedingSiblings(id scheme.ID) []scheme.ID {
	return box(n.AppendPrecedingSiblings(nil, id.(ID)))
}

// Following implements scheme.AxisScheme via AppendFollowing.
func (n *Numbering) Following(id scheme.ID) []scheme.ID {
	return box(n.AppendFollowing(nil, id.(ID)))
}

// Preceding implements scheme.AxisScheme via AppendPreceding.
func (n *Numbering) Preceding(id scheme.ID) []scheme.ID {
	return box(n.AppendPreceding(nil, id.(ID)))
}
