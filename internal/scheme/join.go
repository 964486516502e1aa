package scheme

// The reference join kernels the experiment tables and the bake-off run under
// every numbering scheme, over boxed per-name lists (IDsByName). The served
// joins are the unboxed kernels of internal/index over ruid postings.

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
