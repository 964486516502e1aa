package dataguide

import "repro/internal/xmltree"

// Incremental maintenance: epoch publication derives the next epoch's
// guide from the previous one plus the batch's inserted and removed
// subtrees, instead of re-walking the document. A published guide is never
// mutated — epochs share no mutable guide state — so a Batch deep-copies the
// trie (a structure "typically orders of magnitude below the node count",
// see Size) once and folds every update of the batch into the copy.

// apply adjusts the counts along sub's shape below trie node at; it
// reports false on an inconsistent removal.
func (g *Guide) apply(at *Node, sub *xmltree.Node, delta int) bool {
	if sub.Kind != xmltree.Element {
		return true // text/comment/PI subtrees don't show in the guide
	}
	child := at.Children[sub.Name]
	if child == nil {
		if delta < 0 {
			return false
		}
		child = &Node{Label: sub.Name, Children: map[string]*Node{}}
		at.Children[sub.Name] = child
		g.paths++
	}
	child.Count += delta
	if child.Count < 0 {
		return false
	}
	for _, c := range sub.Children {
		if !g.apply(child, c, delta) {
			return false
		}
	}
	if child.Count == 0 {
		delete(at.Children, sub.Name)
		g.paths -= pathCount(child)
	}
	return true
}

// Batch folds a run of updates into ONE working copy of the guide: a
// publication pays the deep copy once per batch, not once per mutation (the
// clone dominates the write path on name-rich documents). The base guide is
// never mutated; the working copy is private until Guide() hands it out.
type Batch struct {
	g  *Guide
	ok bool
}

// Begin starts a batch fold over a copy of g.
func (g *Guide) Begin() *Batch {
	return &Batch{g: g.clone(), ok: true}
}

// Update adds (delta = +1) or removes (delta = -1) the element counts of the
// subtree rooted at sub. prefix is the label path from the document's root
// element down to and including sub's parent element (empty when sub is the
// root element itself, which no structural update produces). Trie nodes
// whose count drops to zero are pruned with their descendants. It reports
// false on an inconsistency between guide and update (unknown prefix, or
// removal of an unrecorded path); the batch is then broken as a whole —
// apply may have partially adjusted the working copy — and Guide() returns
// nil.
func (b *Batch) Update(prefix []string, sub *xmltree.Node, delta int) bool {
	if !b.ok {
		return false
	}
	at := b.g.root
	for _, label := range prefix {
		at = at.Children[label]
		if at == nil {
			b.ok = false
			return false
		}
	}
	if !b.g.apply(at, sub, delta) {
		b.ok = false
		return false
	}
	return true
}

// Guide returns the folded guide, or nil when any update was inconsistent
// (callers rebuild with Build).
func (b *Batch) Guide() *Guide {
	if !b.ok {
		return nil
	}
	return b.g
}

// pathCount returns the number of label paths a trie subtree contributes.
func pathCount(n *Node) int {
	total := 1
	for _, c := range n.Children {
		total += pathCount(c)
	}
	return total
}

// clone returns a deep copy of the guide.
func (g *Guide) clone() *Guide {
	var cp func(*Node) *Node
	cp = func(n *Node) *Node {
		c := &Node{Label: n.Label, Count: n.Count, Children: make(map[string]*Node, len(n.Children))}
		for k, v := range n.Children {
			c.Children[k] = cp(v)
		}
		return c
	}
	return &Guide{root: cp(g.root), paths: g.paths}
}
