package index

import "repro/internal/core"

// The run kernels of the ruid joins: each structural join written once, over
// one contiguous document-ordered run of concrete core.ID descendants and a
// prepared Probe of the ancestor side. The boxed kernels of internal/scheme
// accept any numbering scheme but pay for it twice per probe: the identifier
// is boxed behind the scheme.ID interface, and the hash-set probe allocates a
// key string from ID.Key(). The kernels below exploit that core.ID is a small
// comparable value type: the probe sets are flat pooled tables of one-word
// keys (IDSet: an identifier outside the probe's layout is rejected by two
// compares, any other is packed and hashed by one multiply, no allocation),
// every climb goes through the scan's core.ParentCursor (RParent with a
// forward finger over table K instead of two binary searches a step), and
// output goes into a caller-supplied buffer. TestFastPathAgree pins each
// against the pointer tree.
//
// A run is document-ordered, so siblings arrive back to back, and what each
// kernel decides for a candidate d depends on parent(d) alone: whether it,
// or an ancestor of it, is a member. Every kernel therefore climbs once per
// distinct parent: it remembers the previous candidate's parent and its
// outcome, and a candidate with the same parent reuses them — the verdict
// for the two upward kernels, the chain already recorded for the two hit
// collectors. The memo lives for one run: `/site//item` takes one parent
// step per item and climbs from each region once, not from every item.
//
// Nothing here knows how the run reached it. ForEachRun (seek.go) is the one
// reader of a Postings view — it admits, charges and decodes the blocks of
// the probe's window, each with the one block decoder, core.AppendIDDeltas,
// through PostingList.AppendBlock — and hands every kernel its runs; the
// operations of internal/exec and the two pair joins of internal/scheme are
// its only callers.

// AppendUpwardSemiJoinRUID is the upward-semi-join kernel over one
// descendant run: every d in descs with at least one ancestor in set is
// appended to out (input order preserved). The verdict of d is whether
// parent(d) is an ancestor-or-self of a member, so a sibling of the previous
// candidate takes its verdict without climbing.
func AppendUpwardSemiJoinRUID(c *core.ParentCursor, set *IDSet, descs []core.ID, out []core.ID) []core.ID {
	var last core.ID // the previous candidate's parent; the zero ID is no one's
	hit := false
	for _, d := range descs {
		p, ok := c.Parent(d)
		if !ok {
			continue
		}
		if p != last {
			last, hit = p, climbsToMember(c, set, p)
		}
		if hit {
			out = append(out, d)
		}
	}
	return out
}

// climbsToMember reports whether a or one of its ancestors is in set.
func climbsToMember(c *core.ParentCursor, set *IDSet, a core.ID) bool {
	for {
		if set.Has(a) {
			return true
		}
		p, ok := c.Parent(a)
		if !ok {
			return false
		}
		a = p
	}
}

// AppendParentSemiJoinRUID is the parent-semi-join kernel over one
// descendant run: every d in descs whose direct parent is in set is
// appended to out. One rparent computation per candidate, one membership
// test per distinct parent.
func AppendParentSemiJoinRUID(c *core.ParentCursor, set *IDSet, descs []core.ID, out []core.ID) []core.ID {
	var last core.ID
	hit := false
	for _, d := range descs {
		p, ok := c.Parent(d)
		if !ok {
			continue
		}
		if p != last {
			last, hit = p, set.Has(p)
		}
		if hit {
			out = append(out, d)
		}
	}
	return out
}

// CollectAncestorHitsRUID is the probing half of the ancestor semi-join
// over one descendant run: every member of set found on the ancestor chain
// of some d ∈ descs is recorded in hit; the caller filters the ancestor list
// through it in order. A sibling of the previous candidate shares its chain,
// which is recorded already.
func CollectAncestorHitsRUID(c *core.ParentCursor, set *IDSet, descs []core.ID, hit *IDSet) {
	var last core.ID
	for _, d := range descs {
		p, ok := c.Parent(d)
		if !ok || p == last {
			continue
		}
		last = p
		for {
			if set.Has(p) {
				hit.Add(p)
			}
			if p, ok = c.Parent(p); !ok {
				break
			}
		}
	}
}

// CollectChildHitsRUID is the probing half of the child semi-join over one
// descendant run: every member of set that is the direct parent of some
// d ∈ descs is recorded in hit, once per distinct parent.
func CollectChildHitsRUID(c *core.ParentCursor, set *IDSet, descs []core.ID, hit *IDSet) {
	var last core.ID
	for _, d := range descs {
		p, ok := c.Parent(d)
		if !ok || p == last {
			continue
		}
		last = p
		if set.Has(p) {
			hit.Add(p)
		}
	}
}
