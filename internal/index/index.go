// Package index implements element-name indexing and structural joins over
// numbered documents — the application that motivated the UID family in the
// first place (paper §1: "ascertaining the identifiers of data items prior
// to loading data from the disk can help to reduce disk access"; §6 cites
// the UID's original use "to facilitate the indexing").
//
// A NameIndex maps each element name to the document-ordered list of ruid
// identifiers of elements with that name. Structural joins combine two such
// lists under the ancestor-descendant or parent-child relationship. The
// UID-family specialty is the upward join: for each descendant candidate,
// the ancestor chain is *computed* from the identifier (rparent arithmetic)
// and probed against a hash of the ancestor list, with no tree or storage
// access at all.
//
// This package holds what serving runs of the joins: the four semi-join run
// kernels (fastpath.go) and the one iterator over a Postings view that feeds
// them (ForEachRun, seek.go — skip-table admission, budget charge, block
// decode); internal/exec runs them. The pair joins (upward and stack-based
// sort-merge, which experiment E11 compares) and the boxed kernels the
// scheme bake-off runs under every numbering scheme live in internal/scheme.
package index

import (
	"sort"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// NameIndex is an in-memory inverted index from element name to the ruid
// identifiers of the elements carrying it, in document order. Postings are
// stored block-compressed (*PostingList, see postings.go) and the join code
// runs the unboxed kernels over Postings views. Sortedness is a maintained
// invariant, not a per-query step: Build emits walk order, ApplyDelta patches
// in place and splices, and nothing downstream re-sorts (see debug.go). The
// join pipelines and the reconstruction fast path rely on it.
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
// storage load path. Every identifier is climbed to the root under rn and
// every list verified to be in strict document order, so a corrupt or
// mismatched snapshot is an error here rather than a panic or wrong query
// results later.
func FromPostingLists(rn *core.Numbering, lists map[string]*PostingList) (*NameIndex, error) {
	ix := &NameIndex{ruid: rn, ruidByName: make(map[string]*PostingList, len(lists))}
	for name, pl := range lists {
		if pl.Len() == 0 {
			continue
		}
		ix.ruidByName[name] = pl
	}
	if err := ix.check(true); err != nil {
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
