package scheme

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/index"
)

// The reference join kernels the experiment tables and the bake-off run under
// every numbering scheme, over boxed per-name lists (IDsByName), and, at the
// end of this file, the two ruid pair joins over index.Postings views. The
// served joins are the four semi-join kernels of internal/index, run by
// internal/exec.

// Pair is one (ancestor, descendant) join result.
type Pair struct {
	Ancestor   ID
	Descendant ID
}

// key renders an identifier as a map key.
func key(id ID) string { return string(id.Key()) }

// UpwardJoin returns, in document order of the descendant, every pair
// (a, d) with a ∈ ancs a proper ancestor of d ∈ descs. The ancestor chain
// of each descendant is computed by parent arithmetic and probed against a
// hash of ancs — the strategy only UID-family schemes support, because it
// needs Parent to be computable from the identifier alone.
func UpwardJoin(s Scheme, ancs, descs []ID) []Pair {
	set := make(map[string]ID, len(ancs))
	for _, a := range ancs {
		set[key(a)] = a
	}
	var out []Pair
	for _, d := range descs {
		cur := d
		for {
			p, ok := s.Parent(cur)
			if !ok {
				break
			}
			if a, hit := set[key(p)]; hit {
				out = append(out, Pair{Ancestor: a, Descendant: d})
			}
			cur = p
		}
	}
	return out
}

// UpwardSemiJoin returns the descendants of descs having at least one
// ancestor in ancs, in input (document) order. It stops climbing at the
// first hit, so it is cheaper than UpwardJoin when only existence matters.
func UpwardSemiJoin(s Scheme, ancs, descs []ID) []ID {
	set := make(map[string]bool, len(ancs))
	for _, a := range ancs {
		set[key(a)] = true
	}
	var out []ID
	for _, d := range descs {
		cur := d
		for {
			p, ok := s.Parent(cur)
			if !ok {
				break
			}
			if set[key(p)] {
				out = append(out, d)
				break
			}
			cur = p
		}
	}
	return out
}

// MergeJoin returns the same pairs as UpwardJoin using the stack-based
// sort-merge strategy: both inputs must be in document order; ancestors
// whose subtrees are open are kept on a stack. It needs only CompareOrder
// and IsAncestor, so it works for interval schemes too.
func MergeJoin(s Scheme, ancs, descs []ID) []Pair {
	var out []Pair
	var stack []ID
	i := 0
	for _, d := range descs {
		// Admit every ancestor candidate that starts before d.
		for i < len(ancs) && s.CompareOrder(ancs[i], d) < 0 {
			// Pop candidates whose subtree closed before this one starts.
			for len(stack) > 0 && !s.IsAncestor(stack[len(stack)-1], ancs[i]) &&
				s.CompareOrder(stack[len(stack)-1], ancs[i]) < 0 {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, ancs[i])
			i++
		}
		// Pop candidates whose subtree closed before d.
		for len(stack) > 0 && !s.IsAncestor(stack[len(stack)-1], d) {
			stack = stack[:len(stack)-1]
		}
		// Every remaining stack entry is an ancestor of d (they are nested).
		for _, a := range stack {
			out = append(out, Pair{Ancestor: a, Descendant: d})
		}
	}
	return out
}

// NaiveJoin is the quadratic baseline: every pair tested with IsAncestor.
func NaiveJoin(s Scheme, ancs, descs []ID) []Pair {
	var out []Pair
	for _, d := range descs {
		for _, a := range ancs {
			if s.IsAncestor(a, d) {
				out = append(out, Pair{Ancestor: a, Descendant: d})
			}
		}
	}
	return out
}

// MergeSemiJoin returns the descendants of descs having at least one proper
// ancestor in ancs, in input (document) order: the semi-join form of
// MergeJoin, emitting each descendant at most once.
func MergeSemiJoin(s Scheme, ancs, descs []ID) []ID {
	var out []ID
	var stack []ID
	i := 0
	for _, d := range descs {
		for i < len(ancs) && s.CompareOrder(ancs[i], d) < 0 {
			for len(stack) > 0 && !s.IsAncestor(stack[len(stack)-1], ancs[i]) &&
				s.CompareOrder(stack[len(stack)-1], ancs[i]) < 0 {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, ancs[i])
			i++
		}
		for len(stack) > 0 && !s.IsAncestor(stack[len(stack)-1], d) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			out = append(out, d)
		}
	}
	return out
}

// The two ruid pair joins over index.Postings views: probe, one scan of the
// probe's window of the descendant side through index.ForEachRun, a run
// kernel on every run. They have no served counterpart (the server answers
// with the semi-joins of internal/exec) and run only in ruidbench and the
// examples.

// PairID is one (ancestor, descendant) join result in unboxed form.
type PairID struct {
	Ancestor   core.ID
	Descendant core.ID
}

// scratchPool holds the pair joins' scan scratch, as internal/exec pools
// its own: a scratch's cursor, decode and chain buffers outlive the join.
var scratchPool = sync.Pool{New: func() any { return new(index.BlockScratch) }}

func getScratch() *index.BlockScratch { return scratchPool.Get().(*index.BlockScratch) }

func putScratch(bs *index.BlockScratch) {
	bs.Stats = index.BlockStats{}
	scratchPool.Put(bs)
}

// oneShot probes ancs, scans the probe's window of descs and runs kernel
// on every admitted run.
func oneShot(n *core.Numbering, ancs, descs index.Postings, kernel func(pr *index.Probe, bs *index.BlockScratch, run []core.ID, out []PairID) []PairID) []PairID {
	pr := index.MakeProbe(ancs)
	defer pr.Release()
	bs := getScratch()
	defer putScratch(bs)
	out := make([]PairID, 0, descs.Len())
	lo, hi := pr.Window(n, descs, bs)
	index.ForEachRun(n, pr, descs, lo, hi, bs, func(run []core.ID) {
		out = kernel(pr, bs, run, out)
	})
	return out
}

// UpwardJoinPostings returns every pair (a, d) with a ∈ ancs a proper
// ancestor of d ∈ descs, in document order of the descendant, computed by
// rparent arithmetic against a hash of ancs.
func UpwardJoinPostings(n *core.Numbering, ancs, descs index.Postings) []PairID {
	return oneShot(n, ancs, descs, func(pr *index.Probe, bs *index.BlockScratch, run []core.ID, out []PairID) []PairID {
		return appendUpwardJoinRUID(bs.Cursor(), &pr.Set, run, out)
	})
}

// MergeJoinPostings returns the same pairs as UpwardJoinPostings by the
// stack-based sort-merge over the two document-ordered inputs. The ancestor
// side is materialized once: the merge kernel walks it sequentially, and a
// selective merge join has a small ancestor side by construction.
func MergeJoinPostings(n *core.Numbering, ancs, descs index.Postings) []PairID {
	ancIDs := ancs.Materialize()
	var ms mergeScratch
	return oneShot(n, ancs, descs, func(pr *index.Probe, bs *index.BlockScratch, run []core.ID, out []PairID) []PairID {
		return appendMergeJoinRUID(ancIDs, &pr.Set, run, bs.Cursor(), &ms, out)
	})
}

// appendUpwardJoinRUID is the upward-join kernel over one descendant run:
// for every d in descs whose ancestor chain hits set, the (ancestor, d)
// pairs are appended to out in climb order (nearest ancestor first).
func appendUpwardJoinRUID(c *core.ParentCursor, set *index.IDSet, descs []core.ID, out []PairID) []PairID {
	for _, d := range descs {
		cur := d
		for {
			p, ok := c.Parent(cur)
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

// mergeScratch is the merge kernel's reusable state across the runs of one
// scan: the open-ancestor stack and the two chain buffers.
type mergeScratch struct {
	stack  []core.ID
	aChain []core.ID
	dChain []core.ID
}

// appendMergeJoinRUID is the stack-based sort-merge kernel over one
// contiguous descendant run, against the document-ordered ancestor side ancs
// (set holds the same identifiers). The kernel climbs each identifier's
// ancestor chain exactly once (one chain per admitted ancestor, one per
// descendant) through c and decides order and ancestorship from the chains
// (core.CompareChains), instead of paying several RParent climbs per
// comparison the way the boxed MergeJoin does.
//
// Every run seeds itself, so runs are independent and their outputs
// concatenate to the one-pass result whatever cut them (a skipped block, or
// nothing at all): candidate admission starts at the first ancestor not
// ordered before the run's first descendant (binary search), and the
// open-ancestor stack starts as the members of set on that descendant's
// ancestor chain, outermost first — exactly the one-pass algorithm's stack
// state at that descendant.
func appendMergeJoinRUID(ancs []core.ID, set *index.IDSet, descs []core.ID, c *core.ParentCursor, ms *mergeScratch, out []PairID) []PairID {
	if len(descs) == 0 {
		return out
	}
	d0 := descs[0]
	ancs = ancs[sort.Search(len(ancs), func(j int) bool {
		return c.CompareOrder(ancs[j], d0) >= 0
	}):]
	// The chain runs nearest-first from d0 itself (chain[0]) to the root.
	stack := ms.stack[:0]
	ms.dChain = c.AppendChain(ms.dChain[:0], d0)
	for j := len(ms.dChain) - 1; j >= 1; j-- {
		if set.Has(ms.dChain[j]) {
			stack = append(stack, ms.dChain[j])
		}
	}
	i := 0
	for _, d := range descs {
		dChain := c.AppendChain(ms.dChain[:0], d)
		// Admit every ancestor candidate that starts before d.
		for i < len(ancs) {
			aChain := c.AppendChain(ms.aChain[:0], ancs[i])
			if core.CompareChains(aChain, dChain) >= 0 {
				ms.aChain = aChain
				break
			}
			// Pop candidates whose subtree closed before this one starts.
			// Stack entries precede ancs[i] (sorted input), so "closed
			// before" is exactly "not a proper ancestor of ancs[i]".
			for len(stack) > 0 && !chainContainsProper(aChain, stack[len(stack)-1]) {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, ancs[i])
			ms.aChain = aChain
			i++
		}
		// Pop candidates whose subtree closed before d.
		for len(stack) > 0 && !chainContainsProper(dChain, stack[len(stack)-1]) {
			stack = stack[:len(stack)-1]
		}
		// Every remaining stack entry is an ancestor of d (they are nested).
		for _, a := range stack {
			out = append(out, PairID{Ancestor: a, Descendant: d})
		}
		ms.dChain = dChain
	}
	ms.stack = stack
	return out
}

// chainContainsProper reports whether id is a proper ancestor of the node
// whose chain is given (id first, root last): membership in chain[1:].
// Chains are short (document depth), so a linear scan beats recomputing the
// climb that produced the chain.
func chainContainsProper(chain []core.ID, id core.ID) bool {
	for _, c := range chain[1:] {
		if c == id {
			return true
		}
	}
	return false
}
