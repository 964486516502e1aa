package core

import (
	"errors"
	"fmt"
	"maps"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// Structural update (§3.2 of the paper). The ruid confines the scope of
// identifier changes to the single UID-local area where the update occurs:
//
//   - if the area has space, only the right siblings of the update point
//     and their *within-area* descendants are relabeled; descendant areas
//     keep their interiors untouched because the frame is unchanged (their
//     roots may get a new local slot in this area, which changes one K row
//     and one identifier per such root, not their contents);
//   - if the update overflows the area's local fan-out kᵢ, only that area
//     is re-enumerated with a larger kᵢ, instead of the whole document as
//     with the original UID.
//
// Both effects are reproduced literally here: every update re-derives the
// affected area's enumeration and reports exactly how many pre-existing
// identifiers changed.
//
// # Atomicity
//
// Every update is all-or-nothing. The tree is mutated first (the
// re-enumeration must see the new shape), but every stamp and K-row
// mutation is recorded in an undo log, the update area's row is copied up
// front (re-enumeration replaces its slot arrays, never edits them), and
// overflow healing computes a scratch table K that is committed — stamps
// included — only when it fully succeeds. On any error the tree mutation
// is reverted and the log replayed backwards, leaving master tree, stamps
// and numbering exactly as before the call.

// ErrImmutable reports a structural update attempted on a published epoch
// clone (the output of CloneFor or CloneDelta). Updates run on the master
// numbering only.
var ErrImmutable = errors.New("core: numbering is an immutable epoch clone")

// Delta describes the exact scope of one successful update so that epoch
// publication can copy only what changed (see CopySet and CloneDelta).
// All node pointers refer to the master tree.
type Delta struct {
	Dirty        []int64   // re-enumerated areas (the update areas)
	RowMoved     []int64   // child areas whose K-row root slot changed
	DeletedAreas []int64   // areas that vanished with a deleted subtree
	Relabels     []Relabel // pre-existing nodes whose identifier changed
	Dropped      []NodeID  // nodes a delete removed, with their last identifiers

	Inserted      *xmltree.Node // root of the subtree an insert attached (nil for deletes)
	Removed       *xmltree.Node // root of the subtree a delete detached (nil for inserts)
	Parent        *xmltree.Node // the structurally mutated parent
	InsertedCount int           // nodes numbered for the first time

	// Full marks an update that healed an overflow by re-partitioning and
	// renumbering: the area-confined description above does not apply and
	// publication must fall back to a full clone.
	Full bool
}

// Relabel records one identifier change of a surviving node.
type Relabel struct {
	Node     *xmltree.Node
	Old, New ID
}

// NodeID pairs a node with an identifier it held.
type NodeID struct {
	Node *xmltree.Node
	ID   ID
}

// idUndo records the stamp a node carried before one logged mutation.
type idUndo struct {
	node *xmltree.Node
	old  xmltree.NodeNum
}

// rowUndo records a child area's prior K-row root slot.
type rowUndo struct {
	a   *area
	old int64
}

// updateLog accumulates every numbering mutation of one structural update
// outside the update area's own row: stamps, the K rows of boundary roots
// that moved, and the areas dropped with a deleted subtree.
type updateLog struct {
	ids          []idUndo
	rows         []rowUndo
	droppedAreas []*area
}

// stamp relabels x (a zero id clears its stamp), logging the old stamp.
func (log *updateLog) stamp(x *xmltree.Node, id ID) {
	log.ids = append(log.ids, idUndo{node: x, old: x.Num})
	x.Num = id.stamp()
}

// rollback undoes the logged mutations, newest first.
func (n *Numbering) rollback(log *updateLog) {
	for i := len(log.ids) - 1; i >= 0; i-- {
		log.ids[i].node.Num = log.ids[i].old
	}
	for i := len(log.rows) - 1; i >= 0; i-- {
		log.rows[i].a.rootLocal = log.rows[i].old
	}
	for _, a := range log.droppedAreas {
		n.areas[a.global] = a
		n.areaRoots[a.root] = true
	}
}

// reEnumFailHook, when non-nil, may inject a failure before an area is
// re-enumerated. Tests use it to exercise rollback paths that real
// documents reach only through rare overflow geometries (a delete, for
// instance, can never overflow naturally: it re-enumerates fewer nodes
// with the same fan-out).
var reEnumFailHook func(global int64) error

// updateArea opens a structural update under parent: it returns the area
// in which parent's children are enumerated. The parent must be numbered by
// this numbering — its stamp must resolve back to it — which rejects a node
// of another tree (an epoch copy, say) that merely carries a stamp.
func (n *Numbering) updateArea(parent *xmltree.Node, op string) (*area, error) {
	if n.epochMode() {
		return nil, ErrImmutable
	}
	pid, _ := n.RUID(parent)
	if x, ok := n.NodeOfID(pid); !ok || x != parent {
		return nil, fmt.Errorf("core: %s under unnumbered node %s", op, parent.Path())
	}
	ga, _ := n.childContext(pid)
	return n.areas[ga], nil
}

// InsertChild implements scheme.Updatable: newChild (possibly a whole
// subtree) becomes the pos-th child of parent. The subtree joins parent's
// UID-local area; use Repartition to re-balance areas after bulk insertion.
func (n *Numbering) InsertChild(parent *xmltree.Node, pos int, newChild *xmltree.Node) (scheme.UpdateStats, error) {
	st, _, err := n.InsertChildDelta(parent, pos, newChild)
	return st, err
}

// InsertChildDelta is InsertChild plus a Delta describing exactly which
// numbering state changed, for incremental epoch publication. The subtree
// arrives unnumbered: stamps it carries from another life (a Clone of an
// epoch node, a subtree deleted earlier) are cleared, so it comes out with
// only the labels this numbering gives it. On error the master tree and the
// numbering are exactly as before the call (newChild is detached again,
// unnumbered, and ownership stays with the caller).
func (n *Numbering) InsertChildDelta(parent *xmltree.Node, pos int, newChild *xmltree.Node) (scheme.UpdateStats, *Delta, error) {
	a, err := n.updateArea(parent, "insert")
	if err != nil {
		return scheme.UpdateStats{}, nil, err
	}
	if pos < 0 || pos > len(parent.Children) {
		return scheme.UpdateStats{}, nil, fmt.Errorf("core: insert position %d out of range", pos)
	}
	newChild.WalkFull(func(x *xmltree.Node) bool {
		x.Num = xmltree.NodeNum{}
		return true
	})
	parent.InsertChildAt(pos, newChild)

	saved := *a
	var log updateLog
	d := &Delta{Dirty: []int64{a.global}, Inserted: newChild, Parent: parent}

	var st scheme.UpdateStats
	st.Relabeled, err = n.reEnumerateArea(a, &log, d)
	if a.fanout > saved.fanout {
		st.AreaRebuilds = 1
	}
	if err == nil {
		n.size += d.InsertedCount
		n.assertK("insert")
		return st, d, nil
	}
	if hst, healed := n.healOverflow(err); healed {
		st.Add(hst)
		return st, &Delta{Full: true, Inserted: newChild, Parent: parent}, nil
	}
	parent.RemoveChild(pos)
	n.rollback(&log)
	*a = saved
	n.assertK("insert rollback")
	return scheme.UpdateStats{}, nil, err
}

// healOverflow recovers from a local-index overflow during an update by
// promoting the node where the overflow occurred to an area root and
// renumbering — the update-time analogue of the Build-time promotion loop,
// rare (it needs a wide-and-deep area) and reported conservatively as a
// full rebuild. An unhealable overflow returns false with n untouched (see
// renumberWith), so the caller can roll the whole update back.
func (n *Numbering) healOverflow(err error) (scheme.UpdateStats, bool) {
	var ov *overflowError
	if !errors.As(err, &ov) || ov.node == nil || n.areaRoots[ov.node] {
		return scheme.UpdateStats{}, false
	}
	roots := maps.Clone(n.areaRoots)
	roots[ov.node] = true
	f, _ := deriveFrame(n.root, roots, n.opts.WithAttrs)
	if _, err := n.renumberWith(f, n.opts.Partition, false); err != nil {
		return scheme.UpdateStats{}, false
	}
	return scheme.UpdateStats{FullRebuild: true, Relabeled: n.size}, true
}

// renumberWith renumbers the whole (already mutated) tree under the frame f,
// compute-then-commit: the new κ and table K are computed
// on a scratch numbering that shares only the tree and writes no stamp, and
// only when that fully succeeds are they adopted and burned into the nodes.
// On error n, and every stamp, is untouched. It returns the number of
// numbered nodes whose identifier changed.
func (n *Numbering) renumberWith(f *frame, part PartitionConfig, adjust bool) (int, error) {
	s := &Numbering{doc: n.doc, root: n.root, opts: n.opts, localLimit: n.localLimit}
	s.opts.Partition = part
	if err := s.renumberHealing(f, adjust); err != nil {
		return 0, err
	}
	*n = *s
	changed := n.commitStamps()
	n.assertK("renumber")
	return changed, nil
}

// DeleteChild implements scheme.Updatable: cascading deletion of the pos-th
// child of parent (§3.2: "any node deletion in an XML tree is cascading").
// Areas rooted inside the deleted subtree disappear with it; the frame
// positions of surviving areas are untouched (the κ-ary arithmetic
// tolerates the gaps), so no identifier outside the update area changes.
func (n *Numbering) DeleteChild(parent *xmltree.Node, pos int) (scheme.UpdateStats, error) {
	st, _, err := n.DeleteChildDelta(parent, pos)
	return st, err
}

// DeleteChildDelta is DeleteChild plus a Delta describing exactly which
// numbering state changed, for incremental epoch publication. The detached
// subtree reads as unnumbered afterwards. On error the master tree and the
// numbering are exactly as before the call (the detached subtree is
// reattached in place, stamps restored).
func (n *Numbering) DeleteChildDelta(parent *xmltree.Node, pos int) (scheme.UpdateStats, *Delta, error) {
	a, err := n.updateArea(parent, "delete")
	if err != nil {
		return scheme.UpdateStats{}, nil, err
	}
	if pos < 0 || pos >= len(parent.Children) {
		return scheme.UpdateStats{}, nil, fmt.Errorf("core: delete position %d out of range", pos)
	}
	removed := parent.RemoveChild(pos)

	saved := *a
	var log updateLog
	d := &Delta{Dirty: []int64{a.global}, Removed: removed, Parent: parent}

	removed.WalkFull(func(x *xmltree.Node) bool {
		n.dropNode(x, &log, d)
		return true
	})
	relabeled, err := n.reEnumerateArea(a, &log, d)
	if err == nil {
		n.size -= len(d.Dropped)
		n.assertK("delete")
		return scheme.UpdateStats{Relabeled: relabeled}, d, nil
	}
	if hst, healed := n.healOverflow(err); healed {
		return hst, &Delta{Full: true, Removed: removed, Parent: parent}, nil
	}
	parent.InsertChildAt(pos, removed)
	n.rollback(&log)
	*a = saved
	n.assertK("delete rollback")
	return scheme.UpdateStats{}, nil, err
}

// dropNode removes one deleted node from all numbering state — its stamp
// and, if it roots one, its whole area — logging everything for rollback.
func (n *Numbering) dropNode(x *xmltree.Node, log *updateLog, d *Delta) {
	id, ok := n.RUID(x)
	if !ok {
		return
	}
	log.stamp(x, ID{})
	d.Dropped = append(d.Dropped, NodeID{Node: x, ID: id})
	if n.areaRoots[x] {
		delete(n.areaRoots, x)
		if a := n.areas[id.Global]; a != nil {
			log.droppedAreas = append(log.droppedAreas, a)
			d.DeletedAreas = append(d.DeletedAreas, id.Global)
			delete(n.areas, id.Global)
		}
	}
}

// reEnumerateArea re-derives the local enumeration of one area, updating
// node stamps, the K row entries of child areas whose roots moved slots, and
// the area's slot arrays (fresh ones — the old stay intact for the caller's
// saved row), logging every mutation outside the row and recording the scope
// in d. The area keeps its fan-out unless its members now need a larger one:
// with no space left, the enumerating tree of this area only is enlarged
// ("the enlargement changes only the identifiers of the nodes in this
// area"). It returns the number of pre-existing nodes whose identifier
// changed. Nodes enumerated for the first time (fresh insertions) are not
// counted.
func (n *Numbering) reEnumerateArea(a *area, log *updateLog, d *Delta) (relabeled int, err error) {
	if reEnumFailHook != nil {
		if err := reEnumFailHook(a.global); err != nil {
			return 0, err
		}
	}
	b := &n.rows
	if need := b.collect(a, n.areaRoots, n.opts.WithAttrs); need > a.fanout {
		a.fanout = need
	}
	err = b.number(a, n.localLimit, 0, 1, func(p int, boundary bool) error {
		x, slot := a.nodes[p], a.slots[p]
		old, existed := n.RUID(x)
		newID := ID{Global: a.global, Local: slot, Root: false}
		switch {
		case boundary:
			// The root of a lower area. Its own area keeps its global index
			// and interior; only its slot here (and hence its K row and full
			// identifier) may change.
			a.lower[p] = old.Global
			child := n.areas[old.Global]
			if child.rootLocal == slot {
				return nil
			}
			log.rows = append(log.rows, rowUndo{a: child, old: child.rootLocal})
			child.rootLocal = slot
			newID = ID{Global: old.Global, Local: slot, Root: true}
			d.RowMoved = append(d.RowMoved, old.Global)
		case p == 0 || old == newID:
			return nil
		case !existed:
			log.stamp(x, newID)
			d.InsertedCount++
			return nil
		}
		log.stamp(x, newID)
		relabeled++
		d.Relabels = append(d.Relabels, Relabel{Node: x, Old: old, New: newID})
		return nil
	})
	return relabeled, err
}

// Repartition rebuilds the numbering from scratch with a fresh automatic
// partition, re-balancing areas after bulk structural change. It returns
// the number of nodes whose identifier changed; on error the numbering is
// unchanged.
func (n *Numbering) Repartition(cfg PartitionConfig) (int, error) {
	if n.epochMode() {
		return 0, ErrImmutable
	}
	return n.renumberWith(selectFrame(n.root, cfg, n.opts.WithAttrs), cfg, cfg.AdjustFanout)
}
