package core

import (
	"errors"
	"fmt"

	"repro/internal/xmltree"
)

// Ownership. A structural update writes three kinds of thing — nodes (a
// child list, a stamp), K rows and the chunks that hold them — and every
// such write is preceded by one step that makes its target writable: ownAt
// for a node, areaIndex.own and ownChunk for K. On an owning numbering the
// step is the identity. On a fork it copies the target the first time, so
// that nothing the fork's origin can reach is ever written, and remembers
// the copy for every later write (Numbering.copied, area.owner,
// areaIndex.mine): the nodes a batch of updates ends up having copied are
// the relabeled members of its update areas, the boundary leaves whose slot
// moved, and the spines above them.
//
// Copying a spine node means re-pointing one entry of its parent's child list
// and one slot of a row at the copy. Both lists are xmltree.Seq, so under a
// wide node — open_auctions and the row its 3000 children's boundary slots
// sit in — that copies the 64-entry chunk holding the entry and the list's
// chunk table, once per chunk and fork, and leaves the other chunks shared
// with the origin; a list of up to 64 entries is copied whole, as a slice
// would be.

// ErrImmutable reports a structural update attempted on a sealed numbering:
// one that a fork shares its tree and table K with, or that its holder
// published. Updates go to a Fork of it.
var ErrImmutable = errors.New("core: numbering is sealed")

// Seal makes n immutable: from here on it rejects structural updates with
// ErrImmutable, which is what lets concurrent readers and forks share it.
func (n *Numbering) Seal() { n.sealed = true }

// Fork seals n and returns a numbering of the same document, with the same
// identifiers, κ and table K, that can be updated: it shares n's tree and
// rows and copies what an update writes, and only that, before writing it
// (see the package notes above), so n and everyone reading it never notice.
// What a sequence of updates left untouched is shared by pointer between n
// and the fork — the subtrees outside the update areas and their spines, the
// K rows of other areas, the chunks holding only those.
func (n *Numbering) Fork() *Numbering {
	n.Seal()
	return &Numbering{
		doc:        n.doc,
		root:       n.root,
		opts:       n.opts,
		kappa:      n.kappa,
		localLimit: n.localLimit,
		size:       n.size,
		k:          n.k.fork(),
		copied:     make(map[*xmltree.Node]struct{}),
	}
}

// owns reports whether n may write x.
func (n *Numbering) owns(x *xmltree.Node) bool {
	if n.copied == nil {
		return true
	}
	_, ok := n.copied[x]
	return ok
}

// adopt takes ownership of a subtree handed to n from outside the tree and
// returns the root to attach, unnumbered. A fork writes nothing an epoch may
// hold: it adopts an unstamped subtree (a parsed fragment) as it is, and a
// Clone of a stamped one (a node of an epoch, or a copy of one), which it
// leaves untouched.
func (n *Numbering) adopt(sub *xmltree.Node) *xmltree.Node {
	if n.copied != nil && stampOf(sub) != (ID{}) {
		sub = sub.Clone()
	}
	sub.WalkFull(func(x *xmltree.Node) bool {
		ID{}.stamp(x)
		if n.copied != nil {
			n.copied[x] = struct{}{}
		}
		return true
	})
	return sub
}

// ownAt returns the node at position i of the row with global index g,
// writable. A node the fork shares is copied first (xmltree.ShallowCopy),
// and the copy takes its place everywhere the fork refers to it: in the
// child list of its parent — owned in turn, which is what copies the spine
// up to the document node — and in the K slots that held it. The parent is
// the node at the parent slot of the same row (the row's arithmetic: a
// published node carries no Node.Parent); an area root is owned through the
// boundary slot it occupies in the upper row.
func (n *Numbering) ownAt(g int64, i int) *xmltree.Node {
	a, _ := n.krow(g)
	if i == 0 && g != 1 {
		up, _ := n.krow(a.parentGlobal)
		j, _ := up.position(a.rootLocal)
		return n.ownAt(up.global, j)
	}
	if x := a.nodes.At(i); n.owns(x) {
		return x
	}
	// The parent, and where x sits in its child list: the row knows both from
	// x's slot (the inverse of childIndex), the document node above the root
	// element — which has no slot — by looking.
	var parent *xmltree.Node
	at := -1
	if i > 0 {
		pi, _ := a.position((a.slots[i]-2)/a.fanout + 1)
		parent = n.ownAt(g, pi)
		at = int((a.slots[i] - 2) % a.fanout) // its entry in parent's sequence
		if !n.opts.WithAttrs {
			at += parent.NumAttrs() // which leads with the attributes, not numbered
		}
	} else if n.doc != n.root {
		if !n.owns(n.doc) {
			n.doc = n.doc.ShallowCopy()
			n.copied[n.doc] = struct{}{}
		}
		parent = n.doc
		at = parent.Seq().Index(n.root)
	}
	a = n.k.own(g)
	x := a.nodes.At(i)
	if n.owns(x) {
		return x // an attribute: copied with its element just now
	}
	c := x.ShallowCopy()
	n.copied[c] = struct{}{}
	if parent != nil {
		if debugChecks && parent.Seq().At(at) != x {
			panic(fmt.Sprintf("core: slot %d of area %d places %s at entry %d of its parent, which holds another node", a.slots[i], g, x.Path(), at))
		}
		parent.SetEntry(at, c)
	}
	if i == 0 {
		if n.doc == n.root {
			n.doc = c
		}
		n.root = c
	}
	n.rebind(a, i, c)
	// The attributes were copied with their element; where they are numbered
	// they lead its children, in the row its children are enumerated in.
	for _, at := range c.Attrs() {
		n.copied[at] = struct{}{}
	}
	if n.opts.WithAttrs && c.NumAttrs() > 0 {
		kids, l := a, a.slots[i]
		if lg := a.lower[i]; lg != 0 {
			kids, l = n.k.own(lg), 1
		}
		for j, at := range c.Attrs() {
			slot, _ := childIndex(l, kids.fanout, j)
			p, _ := kids.position(slot)
			n.rebind(kids, p, at)
		}
	}
	return c
}

// rebind points position i of the owned row a at c, the copy of the node
// there, and with it slot 1 of the lower row when the position is a boundary
// slot.
func (n *Numbering) rebind(a *area, i int, c *xmltree.Node) {
	if a.nodes.Set(i, c); i == 0 {
		a.root = c
	}
	if lg := a.lower[i]; lg != 0 {
		low := n.k.own(lg)
		low.nodes.Set(0, c)
		low.root = c
	}
}

// ownAll is own for whole-tree events (an overflow heal, Repartition), which
// write every stamp and every row: a fork takes one full clone of tree and
// table K and is an owning numbering from then on. It returns the mapping
// from the nodes of the tree it had to their clones, nil when n owned
// everything already.
func (n *Numbering) ownAll() map[*xmltree.Node]*xmltree.Node {
	if n.copied == nil {
		return nil
	}
	tree, mapping := n.doc.CloneWithMap()
	c, err := n.CloneFor(tree, mapping)
	if err != nil {
		panic(fmt.Sprintf("core: cloning a fork's own tree: %v", err)) // the mapping is complete by construction
	}
	*n = *c
	return mapping
}

// CloneFor re-points a copy of the numbering at a cloned document tree:
// doc is the clone of the numbered document and mapping maps every
// original node (attributes included) to its clone, as produced by
// xmltree.Node.CloneWithMap.
//
// The clone carries exactly the same identifiers, κ and table K as the
// original — including fan-outs enlarged by past updates. No stamp is
// assigned here — the tree copy already copied each node's stamp with it.
// The clone owns its tree and its rows (a row's slots and lower arrays are
// shared with the original's, and never edited in place), so it accepts
// updates whatever the original was.
func (n *Numbering) CloneFor(doc *xmltree.Node, mapping map[*xmltree.Node]*xmltree.Node) (*Numbering, error) {
	c := &Numbering{
		doc:        doc,
		opts:       n.opts,
		kappa:      n.kappa,
		localLimit: n.localLimit,
		size:       n.size,
	}
	rows := make([]*area, 0, n.AreaCount())
	var err error
	var buf []*xmltree.Node
	n.forEachArea(func(a *area) {
		na := *a
		buf = a.nodes.AppendTo(buf[:0])
		for i, x := range buf {
			if buf[i] = mapping[x]; buf[i] == nil && err == nil {
				err = fmt.Errorf("core: clone mapping misses node %s", x.Path())
			}
		}
		na.nodes, na.root = xmltree.SeqOf(buf), buf[0]
		rows = append(rows, &na)
	})
	if err != nil {
		return nil, err
	}
	c.root = rows[0].root
	c.k = newAreaIndex(rows)
	c.AssertK("CloneFor")
	return c, nil
}
