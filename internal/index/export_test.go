package index

import (
	"repro/internal/core"
	"repro/internal/scheme"
)

// MayContribute exposes the block skip test so the soundness test can
// check rejected blocks by brute force.
func (pr *Probe) MayContribute(n *core.Numbering, sk *Skip) bool {
	var chain []core.ID
	return pr.mayContribute(n, sk, &chain)
}

// FamilyName exposes which boxed semi-join kernel family familyOf gives s.
func FamilyName(s scheme.Scheme) string {
	f, _ := familyOf(s)
	return [...]string{mergeDepth: "merge+depth", climbing: "climbing", mergeOnly: "merge"}[f]
}

// SharedBlocks counts the blocks of cur that are block objects of prev.
func SharedBlocks(prev, cur *PostingList) int {
	if prev == nil || cur == nil {
		return 0
	}
	had := make(map[*block]bool, len(prev.blocks))
	for _, blk := range prev.blocks {
		had[blk] = true
	}
	n := 0
	for _, blk := range cur.blocks {
		if had[blk] {
			n++
		}
	}
	return n
}
