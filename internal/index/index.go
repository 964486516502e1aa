// Package index implements element-name indexing and structural joins over
// numbered documents — the application that motivated the UID family in the
// first place (paper §1: "ascertaining the identifiers of data items prior
// to loading data from the disk can help to reduce disk access"; §6 cites
// the UID's original use "to facilitate the indexing").
//
// A NameIndex maps each element name to the document-ordered list of
// identifiers of elements with that name. Structural joins combine two such
// lists under the ancestor-descendant relationship; three strategies are
// provided:
//
//   - UpwardJoin — the UID-family specialty: for each descendant candidate,
//     the ancestor chain is *computed* from the identifier (rparent
//     arithmetic) and probed against a hash of the ancestor list. No tree
//     or storage access at all.
//   - MergeJoin — the stack-based sort-merge join usable by any scheme that
//     can compare order and test ancestorship (interval schemes included).
//   - NaiveJoin — the quadratic baseline.
//
// All strategies return identical results; the benchmarks (experiment E11)
// compare their costs across selectivities.
//
// The functions above take any scheme.Scheme and boxed scheme.ID lists: they
// are the reference kernels the experiment tables and the scheme bake-off run
// under every numbering scheme, with per-name lists from scheme.IDsByName. A
// NameIndex is built over the concrete ruid numbering and has a second,
// unboxed engine with one path per join: a run kernel written once
// (fastpath.go), fed by the one iterator over a Postings view (ForEachRun,
// seek.go — skip-table admission, budget charge, block decode), wrapped by a
// serial one-shot *Postings form that is the reference, and sharded by
// internal/exec.
package index

import (
	"sort"

	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// NameIndex is an in-memory inverted index from element name to the ruid
// identifiers of the elements carrying it, in document order. Postings are
// stored block-compressed (*PostingList, see postings.go) and the join code
// runs the unboxed kernels over Postings views. Sortedness is a maintained
// invariant, not a per-query step: Build emits walk order, ApplyDelta patches
// in place and splices, and nothing downstream re-sorts (see debug.go). The
// join pipelines, the reconstruction fast path and the parallel shard merge
// all rely on it.
type NameIndex struct {
	ruid       *core.Numbering
	ruidByName map[string]*PostingList // block-compressed postings, document order
}

// Build indexes every element of the snapshot rooted at root under the ruid
// numbering rn.
func Build(root *xmltree.Node, rn *core.Numbering) *NameIndex {
	// Walk order is document order already; keep lists as built.
	builders := make(map[string]*PostingBuilder)
	root.Walk(func(x *xmltree.Node) bool {
		if x.Kind != xmltree.Element {
			return true
		}
		if id, ok := rn.RUID(x); ok {
			b := builders[x.Name]
			if b == nil {
				b = &PostingBuilder{}
				builders[x.Name] = b
			}
			b.Append(id)
		}
		return true
	})
	ix := &NameIndex{ruid: rn, ruidByName: make(map[string]*PostingList, len(builders))}
	for name, b := range builders {
		ix.ruidByName[name] = b.Finish()
	}
	ix.assertSorted("Build")
	return ix
}

// RUID returns the ruid numbering the index was built over.
func (ix *NameIndex) RUID() *core.Numbering { return ix.ruid }

// FromPostingLists assembles an index from prebuilt posting lists — the
// storage load path. Every list is verified to be in strict document order
// under rn, so a corrupt or mismatched snapshot is an error here rather than
// wrong query results later.
func FromPostingLists(rn *core.Numbering, lists map[string]*PostingList) (*NameIndex, error) {
	ix := &NameIndex{ruid: rn, ruidByName: make(map[string]*PostingList, len(lists))}
	for name, pl := range lists {
		if pl.Len() == 0 {
			continue
		}
		ix.ruidByName[name] = pl
	}
	if err := ix.CheckSorted(); err != nil {
		return nil, err
	}
	return ix, nil
}

// Names returns the indexed element names, sorted.
func (ix *NameIndex) Names() []string {
	names := make([]string, 0, len(ix.ruidByName))
	for n := range ix.ruidByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NameCount returns the number of distinct indexed element names: len(Names())
// without building and sorting the names.
func (ix *NameIndex) NameCount() int { return len(ix.ruidByName) }

// IDs returns the identifiers of elements named name, in document order,
// boxed as scheme.ID for the reference kernels. It decodes the whole
// block-compressed list into a fresh slice — O(Count(name)); pipelines that
// only probe or seek should use Postings instead.
func (ix *NameIndex) IDs(name string) []scheme.ID {
	pl := ix.ruidByName[name]
	if pl.Len() == 0 {
		return nil
	}
	var buf [BlockSize]core.ID
	out := make([]scheme.ID, 0, pl.Len())
	for b := 0; b < pl.NumBlocks(); b++ {
		for _, id := range pl.AppendBlock(b, buf[:0]) {
			out = append(out, id)
		}
	}
	return out
}

// RuidIDs returns the unboxed postings of elements named name, in document
// order. The postings are stored block-compressed, so this MATERIALIZES a
// fresh O(Count(name)) slice on every call — it is the compatibility path for
// callers that genuinely need a flat slice. Join pipelines, semi-joins and
// twig matching should take Postings(name), which seeks through the skip
// table and never builds the slice.
func (ix *NameIndex) RuidIDs(name string) []core.ID {
	pl := ix.ruidByName[name]
	if pl.Len() == 0 {
		return nil
	}
	return pl.AppendAll(make([]core.ID, 0, pl.Len()))
}

// Postings returns the block-compressed postings view of elements named
// name: the no-copy, no-decode path for the seek-based join kernels. The view
// is shared with the index and read-only.
func (ix *NameIndex) Postings(name string) Postings {
	return BlockPostings(ix.ruidByName[name])
}

// Count returns the number of elements named name.
func (ix *NameIndex) Count(name string) int {
	return ix.ruidByName[name].Len()
}

// PostingsSizeBytes returns the resident size of all posting lists
// (compressed delta bytes plus skip tables). PostingsSizeBytes /
// PostingsCount is the bytes-per-posting metric ruidbench tracks.
func (ix *NameIndex) PostingsSizeBytes() int {
	total := 0
	for _, pl := range ix.ruidByName {
		total += pl.SizeBytes()
	}
	return total
}

// PostingsCount returns the total number of postings across all names.
func (ix *NameIndex) PostingsCount() int {
	total := 0
	for _, pl := range ix.ruidByName {
		total += pl.Len()
	}
	return total
}

// Pair is one (ancestor, descendant) join result.
type Pair struct {
	Ancestor   scheme.ID
	Descendant scheme.ID
}

// key renders an identifier as a map key.
func key(id scheme.ID) string { return string(id.Key()) }

// UpwardJoin returns, in document order of the descendant, every pair
// (a, d) with a ∈ ancs a proper ancestor of d ∈ descs. The ancestor chain
// of each descendant is computed by parent arithmetic and probed against a
// hash of ancs — the strategy only UID-family schemes support, because it
// needs Parent to be computable from the identifier alone.
func UpwardJoin(s scheme.Scheme, ancs, descs []scheme.ID) []Pair {
	set := make(map[string]scheme.ID, len(ancs))
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
func UpwardSemiJoin(s scheme.Scheme, ancs, descs []scheme.ID) []scheme.ID {
	set := make(map[string]bool, len(ancs))
	for _, a := range ancs {
		set[key(a)] = true
	}
	var out []scheme.ID
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
func MergeJoin(s scheme.Scheme, ancs, descs []scheme.ID) []Pair {
	var out []Pair
	var stack []scheme.ID
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

// MergeSemiJoin returns the descendants of descs having at least one proper
// ancestor in ancs, in input (document) order: the semi-join form of
// MergeJoin, emitting each descendant at most once.
func MergeSemiJoin(s scheme.Scheme, ancs, descs []scheme.ID) []scheme.ID {
	var out []scheme.ID
	var stack []scheme.ID
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

// NaiveJoin is the quadratic baseline: every pair tested with IsAncestor.
func NaiveJoin(s scheme.Scheme, ancs, descs []scheme.ID) []Pair {
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

// PathQuery evaluates a pure descendant path //n1//n2//…//nk over the
// index with a pipeline of upward semi-joins, returning the identifiers of
// the final step's elements in document order. This is the §4 "query
// evaluation" use of the numbering scheme: the whole pipeline runs on
// identifiers; nodes are fetched only by the caller, afterwards. It is
// PathQueryRUID with the answer boxed as scheme.ID.
func (ix *NameIndex) PathQuery(names ...string) []scheme.ID {
	out := ix.PathQueryRUID(names...)
	if len(out) == 0 {
		return nil
	}
	boxed := make([]scheme.ID, len(out))
	for i, id := range out {
		boxed[i] = id
	}
	return boxed
}

// PathQueryRUID is the unboxed form of PathQuery: the whole semi-join
// pipeline runs on concrete identifiers with no interface boxing, seeking
// through the block skip tables — each step's descendant postings are
// decoded only where a block may contain a match.
func (ix *NameIndex) PathQueryRUID(names ...string) []core.ID {
	if len(names) == 0 {
		return nil
	}
	cur := ix.Postings(names[0])
	if cur.Len() == 0 {
		return nil
	}
	for step := 1; step < len(names); step++ {
		next := UpwardSemiJoinPostings(ix.ruid, cur, ix.Postings(names[step]))
		if len(next) == 0 {
			return nil
		}
		cur = SlicePostings(next)
	}
	return cur.Materialize()
}

// ParentSemiJoin returns the descendants of descs whose *direct parent* is
// in ancs, in input (document) order. One rparent computation per
// candidate — the child-step counterpart of UpwardSemiJoin.
func ParentSemiJoin(s scheme.Scheme, ancs, descs []scheme.ID) []scheme.ID {
	set := make(map[string]bool, len(ancs))
	for _, a := range ancs {
		set[key(a)] = true
	}
	var out []scheme.ID
	for _, d := range descs {
		if p, ok := s.Parent(d); ok && set[key(p)] {
			out = append(out, d)
		}
	}
	return out
}

// AncestorSemiJoin returns the ancestors of ancs having at least one proper
// descendant in descs, in ancs order. Every descendant's ancestor chain is
// computed arithmetically and matched against ancs.
func AncestorSemiJoin(s scheme.Scheme, ancs, descs []scheme.ID) []scheme.ID {
	set := make(map[string]bool, len(ancs))
	for _, a := range ancs {
		set[key(a)] = true
	}
	hit := make(map[string]bool)
	for _, d := range descs {
		cur := d
		for {
			p, ok := s.Parent(cur)
			if !ok {
				break
			}
			k := key(p)
			if set[k] {
				hit[k] = true
			}
			cur = p
		}
	}
	out := make([]scheme.ID, 0, len(hit))
	for _, a := range ancs {
		if hit[key(a)] {
			out = append(out, a)
		}
	}
	return out
}

// ChildSemiJoin returns the ancestors of ancs having at least one *direct
// child* in descs, in ancs order.
func ChildSemiJoin(s scheme.Scheme, ancs, descs []scheme.ID) []scheme.ID {
	set := make(map[string]bool, len(ancs))
	for _, a := range ancs {
		set[key(a)] = true
	}
	hit := make(map[string]bool)
	for _, d := range descs {
		if p, ok := s.Parent(d); ok {
			if k := key(p); set[k] {
				hit[k] = true
			}
		}
	}
	out := make([]scheme.ID, 0, len(hit))
	for _, a := range ancs {
		if hit[key(a)] {
			out = append(out, a)
		}
	}
	return out
}
