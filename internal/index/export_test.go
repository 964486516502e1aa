package index

import "repro/internal/core"

// MayContribute exposes the block skip test so the soundness test can
// check rejected blocks by brute force.
func (pr *Probe) MayContribute(n *core.Numbering, sk *Skip) bool {
	var chain []core.ID
	return pr.mayContribute(n, sk, &chain)
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
