package core

import (
	"errors"
	"fmt"
	"slices"

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
// Every update is all-or-nothing, by computing before it commits. The one
// thing done up front is the edit of the parent's child list (the
// enumeration must see the new shape). The area's new row is then laid out
// in scratch arrays, reading nodes only (renumberArea); stamps, the row, the
// rows of lower areas whose roots moved and the rows of areas that left with
// a deleted subtree are written only once that has succeeded, and none of
// those writes can fail. A failure therefore has exactly one thing to undo,
// the child-list edit. Overflow healing follows the same rule over the whole
// tree (renumberWith).
//
// On a fork every one of those writes is preceded by own (own.go); the parent
// is owned before its child list is edited, which is harmless to undo — the
// copy differs from the node it replaced in nothing but identity.

// UpdateStats quantifies the renumbering scope of one structural update —
// the central metric of experiments E1 and E6. Every numbering scheme of the
// bake-off reports its updates in this type.
type UpdateStats struct {
	// Relabeled is the number of pre-existing nodes whose identifier
	// changed (the inserted node itself does not count; deleted nodes do
	// not count).
	Relabeled int
	// FullRebuild reports that the whole document had to be renumbered
	// (original UID when the global fan-out k overflows).
	FullRebuild bool
	// AreaRebuilds is the number of UID-local areas that had to be
	// re-enumerated with a larger local fan-out (ruid only).
	AreaRebuilds int
}

// Add accumulates other into s.
func (s *UpdateStats) Add(other UpdateStats) {
	s.Relabeled += other.Relabeled
	if other.FullRebuild {
		s.FullRebuild = true
	}
	s.AreaRebuilds += other.AreaRebuilds
}

// Delta describes what one successful update changed, for the index, guide
// and payload maintenance of the layer above. Node pointers refer to the
// updated numbering's tree as the update left it: a relabeled node is the
// one that carries the new stamp (on a fork, the fork's copy), a dropped
// node the one the delete detached.
type Delta struct {
	Relabels []Relabel // pre-existing nodes whose identifier changed
	Dropped  []NodeID  // nodes a delete removed, with their last identifiers

	Inserted      *xmltree.Node // root of the subtree an insert attached, maybe a copy (adopt; nil for deletes)
	Removed       *xmltree.Node // root of the subtree a delete detached (nil for inserts)
	InsertedCount int           // nodes numbered for the first time

	// Full marks an update that healed an overflow by re-partitioning and
	// renumbering: the area-confined description above does not apply, every
	// index over the identifiers has to be rebuilt, and a fork has turned into
	// an owning numbering over a fresh clone of the whole tree.
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

// move is one slot of an update area whose node has to be stamped id.
type move struct {
	p  int
	id ID
}

// reEnumFailHook, when non-nil, may inject a failure before an area is
// re-enumerated. Tests use it to exercise failure paths that real documents
// reach only through rare overflow geometries (a delete can never overflow:
// it re-enumerates fewer nodes with the same fan-out).
var reEnumFailHook func(global int64) error

// ownParent opens a structural update under parent: it makes parent
// writable and returns it (on a fork, possibly as a copy) with the global
// index of the area its children are enumerated in. The parent must be
// numbered by this numbering — its stamp must resolve back to it — which
// rejects a node of another tree that merely carries a stamp.
func (n *Numbering) ownParent(parent *xmltree.Node, op string) (*xmltree.Node, int64, error) {
	if n.sealed {
		return nil, 0, ErrImmutable
	}
	pid, _ := n.RUID(parent)
	if x, ok := n.NodeOfID(pid); !ok || x != parent {
		return nil, 0, fmt.Errorf("core: %s under unnumbered node %s", op, parent.Path())
	}
	i := 0
	if !pid.Root {
		a, _ := n.krow(pid.Global)
		i, _ = a.position(pid.Local)
	}
	return n.ownAt(pid.Global, i), pid.Global, nil
}

// InsertChildDelta makes newChild (possibly a whole subtree) the pos-th
// child of parent and returns a Delta describing exactly which numbering
// state changed. The subtree joins parent's UID-local area; use Repartition
// to re-balance areas after bulk insertion. It arrives unnumbered: stamps it
// carries from another life (a node of an epoch, a subtree deleted earlier)
// are cleared, so it comes out with only the labels this numbering gives it —
// on a fork, from a copy of a stamped subtree (adopt), and Delta.Inserted
// names the root actually attached. On error the tree and the numbering read
// exactly as before the call (what was attached is detached again, and
// ownership of newChild stays with the caller).
func (n *Numbering) InsertChildDelta(parent *xmltree.Node, pos int, newChild *xmltree.Node) (UpdateStats, *Delta, error) {
	if pos < 0 || pos > parent.NumChildren() {
		return UpdateStats{}, nil, fmt.Errorf("core: insert position %d out of range", pos)
	}
	parent, g, err := n.ownParent(parent, "insert")
	if err != nil {
		return UpdateStats{}, nil, err
	}
	newChild = n.adopt(newChild)
	parent.InsertChildAt(pos, newChild)

	d := &Delta{Inserted: newChild}
	st, err := n.renumberArea(g, d)
	if err == nil {
		n.size += d.InsertedCount
		n.AssertK("insert")
		return st, d, nil
	}
	// An overflow at a node that is not an area root yet heals by promoting it.
	var ov *overflowError
	if errors.As(err, &ov) && ov.node != nil && !stampOf(ov.node).Root {
		if n.copied != nil {
			// A heal renumbers the whole tree: own all of it, then run the same code.
			parent.RemoveChild(pos)
			return n.InsertChildDelta(n.ownAll()[parent], pos, newChild)
		}
		if n.healOverflow(ov.node) {
			return UpdateStats{FullRebuild: true, Relabeled: n.size}, &Delta{Full: true, Inserted: newChild}, nil
		}
	}
	parent.RemoveChild(pos)
	return UpdateStats{}, nil, err
}

// healOverflow recovers from a local-index overflow during an update by
// promoting the node where the overflow occurred (not an area root yet) to
// one and renumbering — the update-time analogue of the Build-time promotion
// loop, rare (it needs a wide-and-deep area) and reported conservatively as
// a full rebuild. An overflow the promotion does not cure returns false with
// n untouched (see renumberWith), so the caller can undo the whole update.
//
// The promotion climbs Parent. A fork that has owned its whole tree since an
// earlier heal (ownAll) may hold subtrees inserted after it whose Parent the
// caller has cleared — the document detaches each inserted subtree as its
// batch counts it — so the tree is relinked first.
func (n *Numbering) healOverflow(at *xmltree.Node) bool {
	n.root.Walk(func(x *xmltree.Node) bool {
		for i := 0; i < x.NumChildren(); i++ {
			x.Child(i).Parent = x
		}
		return true
	})
	roots := map[*xmltree.Node]bool{at: true}
	n.forEachArea(func(a *area) { roots[a.root] = true })
	f, _ := deriveFrame(n.root, roots, n.opts.WithAttrs)
	_, err := n.renumberWith(f, n.opts.Partition, false)
	return err == nil
}

// renumberWith renumbers the whole (already mutated) tree, all of which n
// owns, under the frame f, compute-then-commit: the new κ and table K are
// computed on a scratch numbering that shares only the tree and writes no
// stamp, and only when that fully succeeds are they adopted and burned into
// the nodes. On error n, and every stamp, is untouched. It returns the number
// of numbered nodes whose identifier changed.
func (n *Numbering) renumberWith(f *frame, part PartitionConfig, adjust bool) (int, error) {
	s := &Numbering{doc: n.doc, root: n.root, opts: n.opts, localLimit: n.localLimit}
	s.opts.Partition = part
	if err := s.renumberHealing(f, adjust); err != nil {
		return 0, err
	}
	*n = *s
	changed := n.commitStamps()
	n.AssertK("renumber")
	return changed, nil
}

// DeleteChildDelta deletes the pos-th child of parent, cascading (§3.2: "any
// node deletion in an XML tree is cascading"), and returns a Delta describing
// exactly which numbering state changed. Areas rooted inside the deleted
// subtree disappear with it; the frame positions of surviving areas are
// untouched (the κ-ary arithmetic tolerates the gaps), so no identifier
// outside the update area changes. The detached subtree reads as unnumbered
// afterwards — where n owns it: a fork leaves a subtree it shares with its
// origin as it is, unreachable from the fork's tree and still numbered in
// the origin's. On error the tree and the numbering read exactly as before
// the call.
func (n *Numbering) DeleteChildDelta(parent *xmltree.Node, pos int) (UpdateStats, *Delta, error) {
	if pos < 0 || pos >= parent.NumChildren() {
		return UpdateStats{}, nil, fmt.Errorf("core: delete position %d out of range", pos)
	}
	parent, g, err := n.ownParent(parent, "delete")
	if err != nil {
		return UpdateStats{}, nil, err
	}
	removed := parent.TakeChild(pos) // a fork may share it: it is not written

	d := &Delta{Removed: removed}
	st, err := n.renumberArea(g, d)
	if err != nil {
		parent.PutChild(pos, removed)
		return UpdateStats{}, nil, err
	}
	// The detached subtree leaves the numbering: its stamps, and the rows of
	// the areas rooted in it.
	removed.WalkFull(func(x *xmltree.Node) bool {
		id, ok := n.RUID(x)
		if !ok {
			return true
		}
		d.Dropped = append(d.Dropped, NodeID{Node: x, ID: id})
		if id.Root {
			n.k.drop(id.Global)
		}
		if n.owns(x) {
			ID{}.stamp(x)
		}
		return true
	})
	if n.owns(removed) {
		removed.Parent = nil
	}
	n.size -= len(d.Dropped)
	n.AssertK("delete")
	return st, d, nil
}

// renumberArea re-derives the local enumeration of area g after its tree
// changed shape, compute-then-commit. It lays the new row out in fresh
// arrays, reading nodes only, and notes which members the row gives another
// identifier; on error nothing has been written. It then installs the row
// and, for each such member, owns it and stamps it, moves the K row of a
// lower area whose root changed slot, and records the change in d. The area
// keeps its fan-out unless its members now need a larger one: with no space
// left, the enumerating tree of this area only is enlarged ("the enlargement
// changes only the identifiers of the nodes in this area"). The statistics
// count the pre-existing nodes whose identifier changed; nodes enumerated for
// the first time (fresh insertions) are counted in d.
func (n *Numbering) renumberArea(g int64, d *Delta) (st UpdateStats, err error) {
	if reEnumFailHook != nil {
		if err := reEnumFailHook(g); err != nil {
			return st, err
		}
	}
	old, _ := n.krow(g)
	a := &area{global: g, root: old.root, rootLocal: old.rootLocal, parentGlobal: old.parentGlobal}
	b := &n.rows
	a.fanout = max(old.fanout, b.collect(a, nil, n.opts.WithAttrs))
	b.moves = b.moves[:0]
	err = b.number(a, n.localLimit, 0, 1, func(p int, boundary bool) error {
		x, id := b.nodes[p], ID{Global: g, Local: a.slots[p]}
		if boundary {
			// The root of a lower area. Its own area keeps its global index
			// and interior; only its slot here (and hence its K row and full
			// identifier) may change.
			a.lower[p] = stampOf(x).Global
			id = ID{Global: a.lower[p], Local: a.slots[p], Root: true}
		}
		if p > 0 && stampOf(x) != id {
			b.moves = append(b.moves, move{p, id})
		}
		return nil
	})
	if err != nil {
		return st, err
	}

	n.k.put(a)
	if a.fanout > old.fanout {
		st.AreaRebuilds = 1
	}
	d.Relabels = slices.Grow(d.Relabels, len(b.moves))
	for _, m := range b.moves {
		if m.id.Root {
			n.k.own(m.id.Global).rootLocal = m.id.Local
		}
		x := n.ownAt(g, m.p)
		if was, existed := n.RUID(x); existed {
			st.Relabeled++
			d.Relabels = append(d.Relabels, Relabel{Node: x, Old: was, New: m.id})
		} else {
			d.InsertedCount++
		}
		m.id.stamp(x)
	}
	return st, nil
}

// Repartition rebuilds the numbering from scratch with a fresh automatic
// partition, re-balancing areas after bulk structural change. It returns
// the number of nodes whose identifier changed; on error the numbering is
// unchanged.
func (n *Numbering) Repartition(cfg PartitionConfig) (int, error) {
	if n.sealed {
		return 0, ErrImmutable
	}
	n.ownAll()
	return n.renumberWith(selectFrame(n.root, cfg, n.opts.WithAttrs), cfg, cfg.AdjustFanout)
}
