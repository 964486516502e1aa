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
