package dataguide

import (
	"maps"

	"repro/internal/xmltree"
)

// Incremental maintenance: epoch publication derives the next epoch's
// guide from the previous one plus the batch's inserted and removed
// subtrees, instead of re-walking the document. A published guide is never
// mutated — epochs share no mutable guide state — so a Batch copies what it
// writes, as the tree and table K do: the trie nodes along an update's label
// path and under the shape of its subtree are copied the first time the batch
// touches them, and every other trie node stays shared with the base guide.

// Batch folds a run of updates into ONE working guide, private until Guide()
// hands it out; the base guide is never mutated.
type Batch struct {
	g    *Guide
	mine map[*Node]struct{} // the trie nodes this batch made or copied, which it may write
	ok   bool
}

// Begin starts a batch fold over g.
func (g *Guide) Begin() *Batch {
	return &Batch{g: &Guide{root: g.root, paths: g.paths}, mine: map[*Node]struct{}{}, ok: true}
}

// own returns the trie node at, writable: a node still shared with the base
// guide is copied first, its child map with it. The caller re-points the
// parent's entry at the result.
func (b *Batch) own(at *Node) *Node {
	if _, ok := b.mine[at]; !ok {
		at = &Node{Label: at.Label, Count: at.Count, Children: maps.Clone(at.Children)}
		b.mine[at] = struct{}{}
	}
	return at
}

// apply adjusts the counts along sub's shape below the owned trie node at;
// it reports false on an inconsistent removal.
func (b *Batch) apply(at *Node, sub *xmltree.Node, delta int) bool {
	if sub.Kind != xmltree.Element {
		return true // text/comment/PI subtrees don't show in the guide
	}
	child := at.Children[sub.Name]
	if child == nil {
		if delta < 0 {
			return false
		}
		child = &Node{Label: sub.Name, Children: map[string]*Node{}}
		b.mine[child] = struct{}{}
		b.g.paths++
	} else {
		child = b.own(child)
	}
	at.Children[sub.Name] = child
	child.Count += delta
	if child.Count < 0 {
		return false
	}
	for i := 0; i < sub.Children.Len(); i++ {
		if !b.apply(child, sub.Children.At(i), delta) {
			return false
		}
	}
	if child.Count == 0 {
		delete(at.Children, sub.Name)
		b.g.paths -= pathCount(child)
	}
	return true
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
	b.g.root = b.own(b.g.root)
	at := b.g.root
	for _, label := range prefix {
		next := at.Children[label]
		if next == nil {
			b.ok = false
			return false
		}
		next = b.own(next)
		at.Children[label] = next
		at = next
	}
	if !b.apply(at, sub, delta) {
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
