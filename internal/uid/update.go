package uid

import (
	"fmt"
	"math/big"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// Structural update for the original UID, exhibiting exactly the behaviour
// the paper criticizes (§1, Fig. 1; §3.2):
//
//   - inserting a node shifts every right sibling, and because a child's
//     identifier is derived from its parent's, every node in the subtrees of
//     those right siblings is relabeled too;
//   - when the parent's fan-out would exceed the enumeration k, there is no
//     space for the new identifier and the entire document must be
//     re-enumerated with a larger k.

// InsertChild implements scheme.Updatable.
func (n *Numbering) InsertChild(parent *xmltree.Node, pos int, newChild *xmltree.Node) (scheme.UpdateStats, error) {
	if _, ok := n.ids[parent]; !ok {
		return scheme.UpdateStats{}, fmt.Errorf("uid: insert under unnumbered node %s", parent.Path())
	}
	if pos < 0 || pos > parent.NumChildren() {
		return scheme.UpdateStats{}, fmt.Errorf("uid: insert position %d out of range", pos)
	}
	parent.InsertChildAt(pos, newChild)
	kids := parent.StructuralChildren(nil, n.opts.WithAttrs)
	if int64(len(kids)) > n.k64 {
		// Overflow of the global fan-out: the paper's worst case. The whole
		// identifier system is reconstructed with the new maximal fan-out.
		return n.rebuild()
	}
	return n.relabelFrom(parent, newChild, pos), nil
}

// DeleteChild implements scheme.Updatable. Deletion is cascading (§3.2):
// the subtree leaves the document and the right siblings shift left to keep
// sibling identifiers contiguous.
func (n *Numbering) DeleteChild(parent *xmltree.Node, pos int) (scheme.UpdateStats, error) {
	if _, ok := n.ids[parent]; !ok {
		return scheme.UpdateStats{}, fmt.Errorf("uid: delete under unnumbered node %s", parent.Path())
	}
	if pos < 0 || pos >= parent.NumChildren() {
		return scheme.UpdateStats{}, fmt.Errorf("uid: delete position %d out of range", pos)
	}
	removed := parent.RemoveChild(pos)
	removed.WalkFull(func(d *xmltree.Node) bool {
		n.dropID(d)
		return true
	})
	return n.relabelFrom(parent, nil, pos), nil
}

func (n *Numbering) dropID(node *xmltree.Node) {
	if old, ok := n.ids[node]; ok {
		delete(n.nodes, string(ID{old}.Key()))
		delete(n.ids, node)
		n.sortedDirty = true
	}
}

// relabelFrom re-derives the identifiers of parent's structural children
// from position pos onward (and, transitively, their subtrees), counting
// how many pre-existing nodes changed identifier. skip is the freshly
// inserted node (not counted), or nil.
func (n *Numbering) relabelFrom(parent, skip *xmltree.Node, pos int) scheme.UpdateStats {
	var st scheme.UpdateStats
	pid := n.ids[parent]
	kids := parent.StructuralChildren(nil, n.opts.WithAttrs)
	// Attributes precede children in structural order; an insertion among
	// children never moves attributes, but positions must account for them.
	offset := len(kids) - parent.NumChildren()
	for j := offset + pos; j < len(kids); j++ {
		n.relabelSubtree(kids[j], n.childID(pid, j), skip, &st)
	}
	return st
}

// relabelSubtree assigns id to node and re-derives the whole subtree,
// counting changed pre-existing identifiers into st.
func (n *Numbering) relabelSubtree(node *xmltree.Node, id *big.Int, skip *xmltree.Node, st *scheme.UpdateStats) {
	old, existed := n.ids[node]
	if !existed || old.Cmp(id) != 0 {
		if existed && node != skip && !(skip != nil && xmltree.IsAncestor(skip, node)) {
			st.Relabeled++
		}
		n.setID(node, id)
	}
	for j, c := range node.StructuralChildren(nil, n.opts.WithAttrs) {
		n.relabelSubtree(c, n.childID(id, j), skip, st)
	}
}

// rebuild re-enumerates the whole document with k set to the current
// maximal fan-out, counting every node whose identifier changed.
func (n *Numbering) rebuild() (scheme.UpdateStats, error) {
	old := n.ids
	k := int64(maxFanout(n.root, n.opts.WithAttrs))
	if k < n.k64 {
		k = n.k64
	}
	n.k = big.NewInt(k)
	n.k64 = k
	if err := n.renumberAll(); err != nil {
		return scheme.UpdateStats{}, err
	}
	st := scheme.UpdateStats{FullRebuild: true}
	for node, oldID := range old {
		if newID, ok := n.ids[node]; ok && newID.Cmp(oldID) != 0 {
			st.Relabeled++
		}
	}
	return st, nil
}
