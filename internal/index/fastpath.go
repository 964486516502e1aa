package index

import (
	"sort"

	"repro/internal/core"
)

// The run kernels of the ruid joins: each structural join written once, over
// one contiguous document-ordered run of concrete core.ID descendants and a
// prepared Probe of the ancestor side. The generic functions in index.go
// accept any scheme.Scheme but pay for it twice per probe: the identifier is
// boxed behind the scheme.ID interface, and the hash-set probe allocates a
// key string from ID.Key(). The kernels below exploit that core.ID is a small
// comparable value type: the probe sets are flat pooled tables of inline
// identifiers (IDSet: three integers hashed, no allocation), the parent chain
// is computed with the concrete RParent, and output goes into a
// caller-supplied buffer. Both paths return identical results;
// TestFastPathAgree pins that.
//
// Nothing here knows how the run reached it. ForEachRun (seek.go) is the one
// reader of a Postings view — it admits, charges and decodes — and hands
// every kernel its runs; the serial *Postings forms there and the sharding
// drivers of internal/exec are its only callers.

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

// AppendMergeJoinRUID is the stack-based sort-merge kernel over one
// contiguous descendant run, against the document-ordered ancestor side pr
// holds. The kernel climbs each identifier's ancestor chain exactly once (one
// chain per admitted ancestor, one per descendant) and decides order and
// ancestorship from the chains (core.CompareChains), instead of paying
// several RParent climbs per comparison the way the boxed merge join does —
// that chain amortization is what makes the fast path fast.
//
// Every run seeds itself, so runs are independent and their outputs
// concatenate to the one-pass result whatever cut them (a skipped block, a
// shard boundary, or nothing at all): candidate admission starts at the first
// ancestor not ordered before the run's first descendant (binary search), and
// the open-ancestor stack starts as the probe members on that descendant's
// ancestor chain, outermost first — exactly the one-pass algorithm's stack
// state at that descendant. This is the only place the seed is computed.
func AppendMergeJoinRUID(n *core.Numbering, pr *Probe, descs []core.ID, bs *BlockScratch, out []PairID) []PairID {
	if len(descs) == 0 {
		return out
	}
	d0 := descs[0]
	ancs := pr.ids[sort.Search(len(pr.ids), func(j int) bool {
		return n.CompareOrderID(pr.ids[j], d0) >= 0
	}):]
	// The chain runs nearest-first from d0 itself (chain[0]) to the root.
	stack := bs.stack[:0]
	bs.dChain = n.AppendAncestorChainID(bs.dChain[:0], d0)
	for j := len(bs.dChain) - 1; j >= 1; j-- {
		if pr.Set.Has(bs.dChain[j]) {
			stack = append(stack, bs.dChain[j])
		}
	}
	i := 0
	for _, d := range descs {
		dChain := n.AppendAncestorChainID(bs.dChain[:0], d)
		// Admit every ancestor candidate that starts before d.
		for i < len(ancs) {
			aChain := n.AppendAncestorChainID(bs.aChain[:0], ancs[i])
			if core.CompareChains(aChain, dChain) >= 0 {
				bs.aChain = aChain
				break
			}
			// Pop candidates whose subtree closed before this one starts.
			// Stack entries precede ancs[i] (sorted input), so "closed
			// before" is exactly "not a proper ancestor of ancs[i]".
			for len(stack) > 0 && !core.ChainContainsProper(aChain, stack[len(stack)-1]) {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, ancs[i])
			bs.aChain = aChain
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
		bs.dChain = dChain
	}
	bs.stack = stack
	return out
}
