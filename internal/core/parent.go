package core

import (
	"fmt"

	"repro/internal/scheme"
)

// This file implements the structural decision procedures of §2.2 and §3
// of the paper. Everything here reads only κ and the table K — never the
// tree — honoring Lemma 1's claim that, with those global parameters in
// main memory, parent computation requires no I/O.

// krow returns the K-table row for a global index, found by two binary
// searches (directory, then chunk — see areaIndex).
func (n *Numbering) krow(g int64) (*area, bool) { return n.k.find(g) }

// RParent is the rparent() algorithm of Fig. 6: it computes the 2-level
// ruid of the parent of id, using only κ and the table K. The second result
// is false for the document root. An error signals an identifier that does
// not belong to this numbering's identifier space.
func (n *Numbering) RParent(id ID) (ID, bool, error) {
	if id == RootID {
		return ID{}, false, nil
	}
	// Lines 1–5: if the node is an area root, its parent lives in the
	// upper area, found by the κ-ary parent formula on the global index;
	// otherwise the parent shares the node's area.
	g := id.Global
	if id.Root {
		g = (id.Global-2)/n.kappa + 1
	}
	// Line 6: the local fan-out of the parent's area, from K.
	row, ok := n.krow(g)
	if !ok {
		return ID{}, false, fmt.Errorf("core: no K row for global index %d (id %s)", g, id)
	}
	// Line 7: the local parent formula.
	l := (id.Local-2)/row.fanout + 1
	// Lines 8–13: local index 1 means the parent is the root of area g,
	// whose full identifier carries its index in the upper area (from K).
	if l == 1 {
		return row.rootID(), true, nil
	}
	return ID{Global: g, Local: l, Root: false}, true, nil
}

// Parent implements scheme.Scheme via RParent.
func (n *Numbering) Parent(id scheme.ID) (scheme.ID, bool) {
	p, ok, err := n.RParent(id.(ID))
	if err != nil || !ok {
		return nil, false
	}
	return p, true
}

// IsAncestor implements scheme.Scheme via IsAncestorID.
func (n *Numbering) IsAncestor(anc, desc scheme.ID) bool {
	return n.IsAncestorID(anc.(ID), desc.(ID))
}

// IsAncestorID is the concrete-identifier form of IsAncestor — the fast
// path used by the identifier joins, with no interface boxing.
// Ancestor/descendant is examined "based on parent-child determination"
// (§3.3), iterating RParent from the descendant. The frame shortcut of
// Lemma 3 prunes early: if the two areas are unrelated in the frame, no
// ancestor relationship can exist.
func (n *Numbering) IsAncestorID(a, d ID) bool {
	if a == d {
		return false
	}
	// Frame pruning: the area of an ancestor is a frame ancestor-or-self
	// of the descendant's area.
	ga := contextArea(a)
	gd := contextArea(d)
	if !n.frameAncestorOrSelf(ga, gd) {
		return false
	}
	cur := d
	for {
		p, ok, err := n.RParent(cur)
		if err != nil || !ok {
			return false
		}
		if p == a {
			return true
		}
		cur = p
	}
}

// contextArea returns the area a node heads or inhabits: for an area root
// the area it heads, for an interior node its containing area. In both
// cases that is the Global field. Every proper descendant of the node lies
// in a frame descendant-or-self of this area, which is what the ancestry
// pruning in IsAncestor relies on.
func contextArea(id ID) int64 { return id.Global }

// frameAncestorOrSelf reports whether area ga is an ancestor-or-self of
// area gd in the frame, by the κ-ary parent formula on global indices.
func (n *Numbering) frameAncestorOrSelf(ga, gd int64) bool {
	for gd > ga {
		gd = (gd-2)/n.kappa + 1
	}
	return gd == ga
}

// CompareOrder implements scheme.Scheme via CompareOrderID.
func (n *Numbering) CompareOrder(a, b scheme.ID) int {
	return n.CompareOrderID(a.(ID), b.(ID))
}

// CompareOrderID is the concrete-identifier form of CompareOrder — the
// fast path used by the merge join, with no interface boxing and
// stack-allocated ancestor chains for documents up to 32 levels deep.
// The procedure mirrors Fig. 10 lifted to ruid: ancestors precede
// descendants; otherwise the identifiers of the two children of the lowest
// common ancestor are compared — by Lemma 2 their sibling order decides,
// and since siblings are enumerated consecutively within one area, their
// Local indices compare numerically.
func (n *Numbering) CompareOrderID(av, bv ID) int {
	if av == bv {
		return 0
	}
	if n.IsAncestorID(av, bv) {
		return -1
	}
	if n.IsAncestorID(bv, av) {
		return 1
	}
	ca, cb := n.childrenUnderLCA(av, bv)
	if ca.Local < cb.Local {
		return -1
	}
	return 1
}

// childrenUnderLCA returns the children of the lowest common ancestor of a
// and b on the paths to a and b. Neither may be an ancestor-or-self of the
// other. Both returned identifiers are siblings enumerated in the same
// area, so their Local fields are directly comparable.
func (n *Numbering) childrenUnderLCA(a, b ID) (ID, ID) {
	var bufA, bufB [32]ID
	chainA := n.appendAncestorChain(bufA[:0], a) // a, parent(a), ..., root
	chainB := n.appendAncestorChain(bufB[:0], b)
	i, j := len(chainA)-1, len(chainB)-1
	for i > 0 && j > 0 && chainA[i-1] == chainB[j-1] {
		i--
		j--
	}
	return chainA[i-1], chainB[j-1]
}

// appendAncestorChain appends id and its ancestor chain up to the root to
// dst and returns the extended slice. With a stack-backed dst it does not
// allocate for chains that fit the buffer.
func (n *Numbering) appendAncestorChain(dst []ID, id ID) []ID {
	dst = append(dst, id)
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

// AppendAncestorChainID appends id followed by its ancestor chain up to the
// document root to dst and returns the extended slice. It is the exported
// form of the chain walk the order comparison uses internally: join kernels
// that amortize one climb per identifier (instead of one per comparison)
// build chains with it and compare them with CompareChains.
func (n *Numbering) AppendAncestorChainID(dst []ID, id ID) []ID {
	return n.appendAncestorChain(dst, id)
}

// CompareChains compares two identifiers in document order given their
// precomputed ancestor chains (id first, root last — the
// AppendAncestorChainID layout). It decides ancestor/descendant and sibling
// order from the chains alone, with no further parent computation: the
// chains are aligned at the root end, and the children of the lowest common
// ancestor — siblings enumerated in one area, so their Local indices compare
// numerically (Lemma 2) — settle the order.
func CompareChains(a, b []ID) int {
	la, lb := len(a), len(b)
	if la > 0 && lb > 0 && a[0] == b[0] {
		return 0
	}
	k := 0
	for k < la && k < lb && a[la-1-k] == b[lb-1-k] {
		k++
	}
	switch {
	case k == la: // a's whole chain is a prefix of b's: a is an ancestor of b
		return -1
	case k == lb:
		return 1
	default:
		// a[la-1-k] and b[lb-1-k] are the distinct children of the LCA.
		if a[la-1-k].Local < b[lb-1-k].Local {
			return -1
		}
		return 1
	}
}

// ChainContainsProper reports whether id is a proper ancestor of the node
// whose chain is given (id first, root last): membership in chain[1:].
// Chains are short (document depth), so a linear scan beats recomputing the
// climb that produced the chain.
func ChainContainsProper(chain []ID, id ID) bool {
	for _, c := range chain[1:] {
		if c == id {
			return true
		}
	}
	return false
}
