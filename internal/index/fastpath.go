package index

import (
	"repro/internal/core"
)

// Concrete ruid fast paths for the structural joins. The generic functions
// in index.go accept any scheme.Scheme but pay for it twice per probe: the
// identifier is boxed behind the scheme.ID interface, and the hash-set
// probe allocates a key string from ID.Key(). The *RUID variants below
// exploit that core.ID is a small comparable value type: the probe sets
// are flat pooled tables of inline identifiers (IDSet: three integers
// hashed, no allocation), the parent chain is computed with the concrete
// RParent, and the output slices are preallocated from the input
// cardinalities. Both paths return identical results; TestFastPathAgree
// pins that.
//
// Each join is split into a probe constructor (MakeProbe) and an Append*
// kernel that processes one contiguous run of descendants into a
// caller-supplied buffer. The one-shot *RUID functions below are thin
// wrappers; internal/exec shards the same kernels by frame area and runs
// them concurrently against one shared probe set.

// PairID is one (ancestor, descendant) join result in unboxed form.
type PairID struct {
	Ancestor   core.ID
	Descendant core.ID
}

// rparentID climbs one step with the concrete rparent arithmetic; a foreign
// identifier (error) terminates the climb like the root does.
func rparentID(n *core.Numbering, id core.ID) (core.ID, bool) {
	p, ok, err := n.RParent(id)
	if err != nil {
		return core.ID{}, false
	}
	return p, ok
}

// AppendUpwardJoinRUID is the upward-join kernel over one descendant run:
// for every d in descs whose ancestor chain hits set, the (ancestor, d)
// pairs are appended to out in climb order (nearest ancestor first), and
// the extended slice is returned.
func AppendUpwardJoinRUID(n *core.Numbering, set *IDSet, descs []core.ID, out []PairID) []PairID {
	for _, d := range descs {
		cur := d
		for {
			p, ok := rparentID(n, cur)
			if !ok {
				break
			}
			if set.Has(p) {
				out = append(out, PairID{Ancestor: p, Descendant: d})
			}
			cur = p
		}
	}
	return out
}

// UpwardJoinRUID is the unboxed form of UpwardJoin: every pair (a, d) with
// a ∈ ancs a proper ancestor of d ∈ descs, in document order of the
// descendant, computed by rparent arithmetic against a hash of ancs.
func UpwardJoinRUID(n *core.Numbering, ancs, descs []core.ID) []PairID {
	return UpwardJoinPostings(n, SlicePostings(ancs), SlicePostings(descs))
}

// AppendUpwardSemiJoinRUID is the upward-semi-join kernel over one
// descendant run: every d in descs with at least one ancestor in set is
// appended to out (input order preserved).
func AppendUpwardSemiJoinRUID(n *core.Numbering, set *IDSet, descs []core.ID, out []core.ID) []core.ID {
	for _, d := range descs {
		cur := d
		for {
			p, ok := rparentID(n, cur)
			if !ok {
				break
			}
			if set.Has(p) {
				out = append(out, d)
				break
			}
			cur = p
		}
	}
	return out
}

// UpwardSemiJoinRUID is the unboxed form of UpwardSemiJoin: the descendants
// of descs having at least one ancestor in ancs, in input order.
func UpwardSemiJoinRUID(n *core.Numbering, ancs, descs []core.ID) []core.ID {
	return UpwardSemiJoinPostings(n, SlicePostings(ancs), SlicePostings(descs))
}

// AppendParentSemiJoinRUID is the parent-semi-join kernel over one
// descendant run: every d in descs whose direct parent is in set is
// appended to out. One rparent computation per candidate.
func AppendParentSemiJoinRUID(n *core.Numbering, set *IDSet, descs []core.ID, out []core.ID) []core.ID {
	for _, d := range descs {
		if p, ok := rparentID(n, d); ok && set.Has(p) {
			out = append(out, d)
		}
	}
	return out
}

// ParentSemiJoinRUID is the unboxed form of ParentSemiJoin: the descendants
// of descs whose direct parent is in ancs, in input order. One rparent
// computation per candidate.
func ParentSemiJoinRUID(n *core.Numbering, ancs, descs []core.ID) []core.ID {
	return ParentSemiJoinPostings(n, SlicePostings(ancs), SlicePostings(descs))
}

// CollectAncestorHitsRUID is the probing half of the ancestor semi-join
// over one descendant run: every member of set found on the ancestor chain
// of some d ∈ descs is recorded in hit. Each shard accumulates into its own
// hit set; the caller filters the ancestor list through them in order.
func CollectAncestorHitsRUID(n *core.Numbering, set *IDSet, descs []core.ID, hit *IDSet) {
	for _, d := range descs {
		cur := d
		for {
			p, ok := rparentID(n, cur)
			if !ok {
				break
			}
			if set.Has(p) {
				hit.Add(p)
			}
			cur = p
		}
	}
}

// AncestorSemiJoinRUID is the unboxed form of AncestorSemiJoin: the
// ancestors of ancs having at least one proper descendant in descs, in
// ancs order.
func AncestorSemiJoinRUID(n *core.Numbering, ancs, descs []core.ID) []core.ID {
	return AncestorSemiJoinPostings(n, SlicePostings(ancs), SlicePostings(descs))
}

// CollectChildHitsRUID is the probing half of the child semi-join over one
// descendant run: every member of set that is the direct parent of some
// d ∈ descs is recorded in hit.
func CollectChildHitsRUID(n *core.Numbering, set *IDSet, descs []core.ID, hit *IDSet) {
	for _, d := range descs {
		if p, ok := rparentID(n, d); ok && set.Has(p) {
			hit.Add(p)
		}
	}
}

// ChildSemiJoinRUID is the unboxed form of ChildSemiJoin: the ancestors of
// ancs having at least one direct child in descs, in ancs order.
func ChildSemiJoinRUID(n *core.Numbering, ancs, descs []core.ID) []core.ID {
	return ChildSemiJoinPostings(n, SlicePostings(ancs), SlicePostings(descs))
}

// AppendHitMembersRUID appends the members of ids present in any of hits to
// out, preserving ids order — the emission half of both bottom-up
// semi-joins. The serial forms pass their one hit set; internal/exec passes
// its per-shard sets as they are, since filtering the ancestor list through
// them restores order without a sort and without building their union.
func AppendHitMembersRUID(ids []core.ID, hits []*IDSet, out []core.ID) []core.ID {
	for _, a := range ids {
		for _, hit := range hits {
			if hit.Has(a) {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// MergeScratch holds the reusable per-run state of the merge-join kernel:
// the open-ancestor stack and the two chain buffers. The zero value is
// ready to use; internal/exec pools instances across shards.
type MergeScratch struct {
	stack  []core.ID
	aChain []core.ID
	dChain []core.ID
}

// AppendMergeJoinRUID is the stack-based sort-merge kernel over one
// contiguous descendant run. Both inputs must be in document order. The
// kernel climbs each identifier's ancestor chain exactly once (one chain
// per admitted ancestor, one per descendant) and decides order and
// ancestorship from the chains (core.CompareChains), instead of paying
// several RParent climbs per comparison the way the boxed merge join does —
// that chain amortization is what makes the fast path fast.
//
// startStack, when non-nil, seeds the open-ancestor stack (outermost
// first): a shard kernel passes the ancs members lying on the first
// descendant's ancestor chain, which is exactly the serial algorithm's
// stack state at that descendant. ancs must start at the first candidate
// not yet admitted by that seed.
func AppendMergeJoinRUID(n *core.Numbering, ancs, descs []core.ID, startStack []core.ID, sc *MergeScratch, out []PairID) []PairID {
	if sc == nil {
		sc = &MergeScratch{}
	}
	stack := append(sc.stack[:0], startStack...)
	i := 0
	for _, d := range descs {
		dChain := n.AppendAncestorChainID(sc.dChain[:0], d)
		// Admit every ancestor candidate that starts before d.
		for i < len(ancs) {
			aChain := n.AppendAncestorChainID(sc.aChain[:0], ancs[i])
			if core.CompareChains(aChain, dChain) >= 0 {
				sc.aChain = aChain
				break
			}
			// Pop candidates whose subtree closed before this one starts.
			// Stack entries precede ancs[i] (sorted input), so "closed
			// before" is exactly "not a proper ancestor of ancs[i]".
			for len(stack) > 0 && !core.ChainContainsProper(aChain, stack[len(stack)-1]) {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, ancs[i])
			sc.aChain = aChain
			i++
		}
		// Pop candidates whose subtree closed before d.
		for len(stack) > 0 && !core.ChainContainsProper(dChain, stack[len(stack)-1]) {
			stack = stack[:len(stack)-1]
		}
		// Every remaining stack entry is an ancestor of d (they are nested).
		for _, a := range stack {
			out = append(out, PairID{Ancestor: a, Descendant: d})
		}
		sc.dChain = dChain
	}
	sc.stack = stack
	return out
}

// MergeJoinRUID is the unboxed form of MergeJoin: the stack-based
// sort-merge join over document-ordered inputs, using chain-amortized
// order and ancestorship decisions.
func MergeJoinRUID(n *core.Numbering, ancs, descs []core.ID) []PairID {
	var sc MergeScratch
	return AppendMergeJoinRUID(n, ancs, descs, nil, &sc, make([]PairID, 0, len(descs)))
}
