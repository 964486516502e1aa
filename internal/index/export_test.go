package index

import "repro/internal/core"

// MayContribute exposes the block skip test so the soundness test can
// check rejected blocks by brute force.
func (pr *Probe) MayContribute(n *core.Numbering, sk *Skip) bool {
	var bs BlockScratch
	bs.cursor.Reset(n)
	return pr.mayContribute(sk, &bs)
}

// Reset empties s and sizes its table for n members, with a layout the
// first Add chooses: a pooled set's life cycle without a probe.
func (s *IDSet) Reset(n int) { s.reset(n, keyLayout{}, false) }

// Wide reports whether s keeps whole identifiers because no word layout
// holds its members.
func (s *IDSet) Wide() bool { return len(s.wide) != 0 }

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
