package index

import (
	"sort"

	"repro/internal/scheme"
)

// This file holds the comparison-only structural-join kernels — the variants
// of the semi-joins in index.go that need nothing from the scheme beyond
// CompareOrder and IsAncestor (plus Depth for the parent/child steps) — and
// the rule that picks, per scheme, between them and the Parent-climbing
// kernels. Both families stay because neither wins everywhere: what a merge
// kernel costs is what the scheme's IsAncestor costs. Measured on the E15
// recursive fixture, section→title descendant semi-join: uid, whose
// IsAncestor is itself a parent climb, runs the climbing kernel in 0.22 ms and
// the merge kernel in 5.2 ms (boxed ruid: 0.16 against 0.68 ms); nestedint,
// whose nested intervals decide ancestry in O(1), is the reverse, 0.42 ms
// climbing against 0.042 ms merging. Both inputs must be in document order (the
// maintained postings invariant).

// boxedFamily names the semi-join kernels a scheme is given.
type boxedFamily int

const (
	// mergeDepth: the scheme declares Depth, so all four merge kernels run
	// (nestedint, ancestry) — and a scheme that labels depth compares labels
	// cheaply enough that they beat climbing even where Parent is computable.
	mergeDepth boxedFamily = iota
	// climbing: ComputedParent without Depth (ruid, uid) — the UID family's
	// Parent arithmetic against a hash of the ancestor side.
	climbing
	// mergeOnly: neither (prepost, limoon) — merge kernels for descendant
	// edges; child edges stay on the navigation engine.
	mergeOnly
)

// familyOf decides the kernel family once, from what the scheme can compute;
// the four dispatchers and CanChildStep all ask it. The Depther is non-nil
// exactly for mergeDepth.
func familyOf(s scheme.Scheme) (boxedFamily, scheme.Depther) {
	caps := scheme.CapsOf(s)
	if d, ok := s.(scheme.Depther); ok && caps.Depth {
		return mergeDepth, d
	}
	if caps.ComputedParent {
		return climbing, nil
	}
	return mergeOnly, nil
}

// CanChildStep reports whether scheme s can execute child-edge semi-joins:
// by the depth-aware merge kernels or by Parent computation. Pure interval
// schemes without depth (prepost, limoon) cannot, and the planner keeps child
// steps on the navigation engine for them.
func CanChildStep(s scheme.Scheme) bool {
	f, _ := familyOf(s)
	return f != mergeOnly
}

// SemiJoinDescendants keeps the descs having a proper ancestor in ancs, by
// the kernel family familyOf gives the scheme.
func SemiJoinDescendants(s scheme.Scheme, ancs, descs []scheme.ID) []scheme.ID {
	if f, _ := familyOf(s); f == climbing {
		return UpwardSemiJoin(s, ancs, descs)
	}
	return MergeSemiJoin(s, ancs, descs)
}

// SemiJoinChildren keeps the descs whose direct parent is in ancs; ok is
// false when the scheme supports neither kernel (see CanChildStep).
func SemiJoinChildren(s scheme.Scheme, ancs, descs []scheme.ID) ([]scheme.ID, bool) {
	switch f, d := familyOf(s); f {
	case mergeDepth:
		return MergeParentSemiJoin(d, ancs, descs), true
	case climbing:
		return ParentSemiJoin(s, ancs, descs), true
	}
	return nil, false
}

// SemiJoinAncestors keeps the ancs having a proper descendant in descs, by
// the kernel family familyOf gives the scheme.
func SemiJoinAncestors(s scheme.Scheme, ancs, descs []scheme.ID) []scheme.ID {
	if f, _ := familyOf(s); f == climbing {
		return AncestorSemiJoin(s, ancs, descs)
	}
	return MergeAncestorSemiJoin(s, ancs, descs)
}

// SemiJoinParents keeps the ancs having a direct child in descs; ok is
// false when the scheme supports neither kernel.
func SemiJoinParents(s scheme.Scheme, ancs, descs []scheme.ID) ([]scheme.ID, bool) {
	switch f, d := familyOf(s); f {
	case mergeDepth:
		return MergeChildSemiJoin(d, ancs, descs), true
	case climbing:
		return ChildSemiJoin(s, ancs, descs), true
	}
	return nil, false
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

// MergeAncestorSemiJoin returns the ancestors of ancs having at least one
// proper descendant in descs, in ancs order. It exploits the interval
// property every document-ordered scheme shares: the descendants of a form
// a contiguous run immediately after a in document order, so the first
// element of descs ordered after a is a descendant of a iff any is — one
// binary search plus one IsAncestor test per ancestor.
func MergeAncestorSemiJoin(s scheme.Scheme, ancs, descs []scheme.ID) []scheme.ID {
	var out []scheme.ID
	for _, a := range ancs {
		i := sort.Search(len(descs), func(i int) bool { return s.CompareOrder(descs[i], a) > 0 })
		if i < len(descs) && s.IsAncestor(a, descs[i]) {
			out = append(out, a)
		}
	}
	return out
}

// nearestAdmitted advances the merge frontier for the depth-aware kernels:
// it admits ancestor candidates starting before d onto the stack and pops
// the candidates whose subtree closed, leaving the nearest ancs-ancestor of
// d (if any) on top. It returns the updated frontier.
func nearestAdmitted(s scheme.Scheme, ancs []scheme.ID, d scheme.ID, i int, stack []scheme.ID) (int, []scheme.ID) {
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
	return i, stack
}

// MergeParentSemiJoin returns the descendants of descs whose *direct
// parent* is in ancs, in input (document) order, without computing any
// parent identifier: the nearest ancs-ancestor of d (the stack top) is d's
// parent exactly when its depth is depth(d)−1.
func MergeParentSemiJoin(s scheme.Depther, ancs, descs []scheme.ID) []scheme.ID {
	var out []scheme.ID
	var stack []scheme.ID
	i := 0
	for _, d := range descs {
		i, stack = nearestAdmitted(s, ancs, d, i, stack)
		if len(stack) == 0 {
			continue
		}
		pd, ok1 := s.Depth(stack[len(stack)-1])
		dd, ok2 := s.Depth(d)
		if ok1 && ok2 && pd+1 == dd {
			out = append(out, d)
		}
	}
	return out
}

// MergeChildSemiJoin returns the ancestors of ancs having at least one
// *direct child* in descs, in ancs order — the depth-aware dual of
// MergeParentSemiJoin.
func MergeChildSemiJoin(s scheme.Depther, ancs, descs []scheme.ID) []scheme.ID {
	hit := make(map[string]bool)
	var stack []scheme.ID
	i := 0
	for _, d := range descs {
		i, stack = nearestAdmitted(s, ancs, d, i, stack)
		if len(stack) == 0 {
			continue
		}
		top := stack[len(stack)-1]
		pd, ok1 := s.Depth(top)
		dd, ok2 := s.Depth(d)
		if ok1 && ok2 && pd+1 == dd {
			hit[key(top)] = true
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
