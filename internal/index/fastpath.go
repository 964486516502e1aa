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
// Nothing here knows how the run reached it. ForEachRun (seek.go) is the one
// reader of a Postings view — it admits, charges and decodes the blocks of
// the probe's window — and hands every kernel its runs; the operations of
// internal/exec and the two pair joins of internal/scheme are its only
// callers.

// AppendUpwardSemiJoinRUID is the upward-semi-join kernel over one
// descendant run: every d in descs with at least one ancestor in set is
// appended to out (input order preserved).
func AppendUpwardSemiJoinRUID(c *core.ParentCursor, set *IDSet, descs []core.ID, out []core.ID) []core.ID {
	for _, d := range descs {
		cur := d
		for {
			p, ok := c.Parent(cur)
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
func AppendParentSemiJoinRUID(c *core.ParentCursor, set *IDSet, descs []core.ID, out []core.ID) []core.ID {
	for _, d := range descs {
		if p, ok := c.Parent(d); ok && set.Has(p) {
			out = append(out, d)
		}
	}
	return out
}

// CollectAncestorHitsRUID is the probing half of the ancestor semi-join
// over one descendant run: every member of set found on the ancestor chain
// of some d ∈ descs is recorded in hit; the caller filters the ancestor list
// through it in order.
func CollectAncestorHitsRUID(c *core.ParentCursor, set *IDSet, descs []core.ID, hit *IDSet) {
	for _, d := range descs {
		cur := d
		for {
			p, ok := c.Parent(cur)
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
func CollectChildHitsRUID(c *core.ParentCursor, set *IDSet, descs []core.ID, hit *IDSet) {
	for _, d := range descs {
		if p, ok := c.Parent(d); ok && set.Has(p) {
			hit.Add(p)
		}
	}
}
