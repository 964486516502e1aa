package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/xmltree"
)

// ErrOverflow reports that an index computation exceeded int64. Local-level
// overflows during Build are healed automatically by promoting the
// offending node to an area root; a global-level overflow signals that the
// frame itself should be split with a multilevel ruid. The comparison
// schemes wrap this same value, so errors.Is agrees across them.
var ErrOverflow = errors.New("identifier exceeds int64")

// overflowError wraps ErrOverflow with the node whose child index no longer
// fits, so Build can split the area there.
type overflowError struct {
	area int64
	node *xmltree.Node
}

func (e *overflowError) Error() string {
	return fmt.Sprintf("core: index exceeds int64: local index in area %d", e.area)
}

func (e *overflowError) Unwrap() error { return ErrOverflow }

// Options configure Build.
type Options struct {
	// Partition controls automatic area-root selection; ignored when Roots
	// is set.
	Partition PartitionConfig
	// Roots, when non-nil, fixes the set of area roots explicitly (the
	// document root is added implicitly). Used by golden tests that pin the
	// paper's example partition, and by callers with domain knowledge.
	Roots map[*xmltree.Node]bool
	// WithAttrs enumerates attribute nodes as leading children of their
	// element so that every component of the document is numbered (§4).
	WithAttrs bool
}

// area is the bookkeeping for one UID-local area.
type area struct {
	global       int64         // global index (frame UID)
	root         *xmltree.Node // area root
	rootLocal    int64         // index of root in the upper area (1 for the document root)
	fanout       int64         // local enumeration fan-out kᵢ
	parentGlobal int64         // global index of the upper area (0 for the root area)

	// The row's slots — the clustered (global, local) index of the stored
	// document — as parallel arrays in ascending local-index order:
	// slots[i] is an occupied local index, nodes[i] the node sitting there
	// and lower[i] the global index of the lower area rooted there when the
	// slot holds a boundary leaf (the materialization of the paper's "search
	// K for a row whose global index is a frame child of θ and whose local
	// index is i"), zero otherwise. Boundary leaves occupy a slot here
	// although their stored identifier differs; position 0 is slot 1, the
	// area's own root.
	//
	// slots and lower are built whole (rowBuilder) and never edited
	// afterwards, so a copy of the area struct stays valid and a fork's copy
	// of a row shares them; nodes is edited — a slot re-pointed at the copy
	// of its node — only in a row its index owns (areaIndex.own), and there
	// chunk by chunk (xmltree.Seq): the row the 3000 open_auctions of an
	// XMark document sit in costs a fork one 64-slot chunk per slot it
	// re-points, not the array. The row is 128 bytes, a size class, with the
	// Seq's four words; a fifth would move every row to 144.
	slots []int64
	nodes xmltree.Seq
	lower []int64

	owner *ownerTag // the index that may write this row (areaIndex.tag)
}

// rowBuilder lays out the slot arrays of one K row in two passes over the
// area; its buffers are reused from one row to the next, and from one update
// to the next.
type rowBuilder struct {
	nodes []*xmltree.Node // the area's members, breadth-first
	kids  []childRun      // each member's children among them
	moves []move          // what an update's enumeration changes (renumberArea)
}

// childRun is a member's children in breadth-first order: n of them from
// position first on; n < 0 marks a boundary leaf.
type childRun struct{ first, n int32 }

// collect gathers the members of a's area breadth-first from its root,
// stopping at boundary leaves (area roots other than the area's own: the
// members of roots or, when roots is nil and the tree is numbered, the nodes
// whose stamp says so), sizes a's slot arrays for them and returns the maximal
// fan-out among them — the kᵢ the area needs (step 5 of Fig. 3). Breadth-first
// order is ascending local-index order under any kᵢ-ary UID, so the row comes
// out sorted.
func (b *rowBuilder) collect(a *area, roots map[*xmltree.Node]bool, withAttrs bool) (need int64) {
	b.nodes, b.kids = append(b.nodes[:0], a.root), b.kids[:0]
	need = 1
	for p := 0; p < len(b.nodes); p++ {
		x := b.nodes[p]
		if p > 0 && (roots[x] || roots == nil && stampOf(x).Root) {
			b.kids = append(b.kids, childRun{n: -1})
			continue
		}
		first := len(b.nodes)
		b.nodes = x.StructuralChildren(b.nodes, withAttrs)
		need = max(need, int64(len(b.nodes)-first))
		b.kids = append(b.kids, childRun{int32(first), int32(len(b.nodes) - first)})
	}
	a.nodes = xmltree.SeqOf(b.nodes)
	a.slots = make([]int64, len(b.nodes))
	a.lower = make([]int64, len(b.nodes))
	return need
}

// number assigns the member at position p the local index slot and the
// members below it theirs via an a.fanout-ary tree (step 6 of Fig. 3), none
// beyond limit: number(a, limit, 0, 1, at) numbers the collected row. It walks
// the row, not the tree, in document order, and hands at each member's
// position — b.nodes[p] is the member — once its slot is set; a boundary
// leaf's lower entry is at's to fill.
func (b *rowBuilder) number(a *area, limit int64, p int, slot int64, at func(p int, boundary bool) error) error {
	a.slots[p] = slot
	kids := b.kids[p]
	if err := at(p, kids.n < 0); err != nil {
		return err
	}
	for j := 0; j < int(kids.n); j++ {
		cl, ok := childIndex(slot, a.fanout, j)
		if !ok || cl > limit {
			return &overflowError{area: a.global, node: b.nodes[p]}
		}
		if err := b.number(a, limit, int(kids.first)+j, cl, at); err != nil {
			return err
		}
	}
	return nil
}

// Numbering is a 2-level ruid numbering of one document snapshot.
//
// The binding between nodes and identifiers has one form: a numbered node
// carries its identifier in its xmltree.NodeNum stamp (RUID reads it), and
// an identifier resolves to its node through the slot arrays of its table-K
// row (NodeOfID). There is no per-node table beside those two, so a tree
// carries at most one ruid numbering at a time (see Build).
//
// There is one representation — κ, and the table K as a chunked index
// sorted by global index — and one update (update.go). What differs between
// numberings is only what they may write:
//
//   - an owning numbering (the output of Build, Load and CloneFor) owns its
//     tree and every K row, and a structural update edits both in place;
//   - a fork (the output of Fork) shares tree and K with the numbering it
//     was taken from and owns nothing at first: every write goes through own
//     (own.go), which copies a node, a K row or a chunk the first time the
//     fork writes it, so the update is the same code and what it leaves
//     untouched stays shared by pointer;
//   - a sealed numbering (one that was forked, or that its holder published
//     with Seal) is immutable — others read what it reaches — and rejects
//     updates with ErrImmutable.
type Numbering struct {
	doc  *xmltree.Node
	root *xmltree.Node
	opts Options

	kappa      int64 // frame fan-out κ
	localLimit int64 // largest admissible local index (see MaxLocalBits)
	size       int   // numbered-node count

	k    *areaIndex // the table K
	rows rowBuilder // buffers every row of this K is laid out in

	sealed bool
	// copied is nil in an owning numbering. In a fork it holds the nodes that
	// are the fork's alone — its copies of shared nodes and the subtrees it
	// was handed to insert — which it may therefore write.
	copied map[*xmltree.Node]struct{}
}

// forEachArea visits every K row in ascending global order.
func (n *Numbering) forEachArea(fn func(*area)) { n.k.forEach(fn) }

// Build constructs the 2-level ruid for doc following the algorithm of
// Fig. 3: partition into UID-local areas, enumerate the frame with a κ-ary
// UID for the global indices, enumerate each area with its own kᵢ-ary UID
// for the local indices, and record κ and the table K.
//
// The identifiers are burned into the nodes (xmltree.NodeNum), so a tree
// carries at most one ruid numbering at a time: building a second one over
// the same tree takes the stamps over and leaves the first unusable. A
// failed Build leaves the tree's stamps as it found them.
func Build(doc *xmltree.Node, opts Options) (*Numbering, error) {
	root := doc
	if doc.Kind == xmltree.Document {
		root = doc.DocumentElement()
		if root == nil {
			return nil, errors.New("core: document has no root element")
		}
	}
	n := &Numbering{doc: doc, root: root, opts: opts}
	bits := opts.Partition.MaxLocalBits
	if bits <= 0 {
		bits = DefaultMaxLocalBits
	}
	if bits > 62 {
		bits = 62
	}
	n.localLimit = int64(1) << bits

	// Step 1 of Fig. 3: partition into UID-local areas; build the frame.
	var f *frame
	if opts.Roots != nil {
		roots := make(map[*xmltree.Node]bool, len(opts.Roots)+1)
		for r, ok := range opts.Roots {
			if ok {
				roots[r] = true
			}
		}
		roots[root] = true
		f, _ = deriveFrame(root, roots, opts.WithAttrs)
	} else {
		f = selectFrame(root, opts.Partition, opts.WithAttrs)
	}
	if err := n.renumberHealing(f, opts.Roots == nil && opts.Partition.AdjustFanout); err != nil {
		return nil, err
	}
	n.commitStamps()
	n.AssertK("Build")
	return n, nil
}

// renumberHealing runs renumberAll until it succeeds. A node-count budget
// alone does not bound local identifier magnitude: an area mixing a wide
// node with a deep path can push a kᵢ-ary local index past int64. When that
// happens, the node where the overflow occurred is promoted to an area root
// (shrinking the area) and the enumeration retried; each promotion strictly
// reduces the offending area, so this terminates. With adjust, promotions —
// which add frame children — are followed by the §2.3 pass.
//
// It computes into n's table K only and writes no stamp: whole-tree
// renumbering is compute-then-commit, and the caller burns the result into
// the tree with commitStamps once it has succeeded.
func (n *Numbering) renumberHealing(f *frame, adjust bool) error {
	for {
		err := n.renumberAll(f)
		if err == nil {
			return nil
		}
		var ov *overflowError
		if !errors.As(err, &ov) || ov.node == nil || f.roots[ov.node] {
			return err
		}
		up := f.promote(ov.node)
		if adjust {
			f.adjust(up, nil)
			f.adjust(ov.node, nil)
		}
	}
}

// renumberAll recomputes κ and the table K from the current tree and the
// frame f (steps 2–4 of Fig. 3).
func (n *Numbering) renumberAll(f *frame) error {
	// Step 2: κ is the maximal fan-out of the frame.
	n.kappa = 1
	for _, kids := range f.kids {
		if int64(len(kids)) > n.kappa {
			n.kappa = int64(len(kids))
		}
	}

	n.size = 0

	// Step 3: enumerate the frame with a κ-ary UID (global indices), then
	// each area with its own local UID. An area root's local index in the
	// upper area (step 4's half of its identifier) is known once the upper
	// area is enumerated, so areas are processed top-down and a row is opened
	// when its root is met as a boundary leaf of the row above. That is
	// level order over the frame, which a κ-ary UID numbers ascending: the
	// queue is the table K, sorted.
	queue := []*area{{global: 1, root: n.root, rootLocal: 1}}
	b := &n.rows
	for qi := 0; qi < len(queue); qi++ {
		a := queue[qi]
		a.fanout = b.collect(a, f.roots, n.opts.WithAttrs)
		// The boundary leaves and the frame children of this area are the
		// same nodes, both met in document order.
		kids, met := f.kids[a.root], 0
		err := b.number(a, n.localLimit, 0, 1, func(p int, boundary bool) error {
			if !boundary {
				n.size++
				return nil
			}
			if met == len(kids) || kids[met] != b.nodes[p] {
				return fmt.Errorf("core: area %d (%s): boundary leaf %s is not frame child %d",
					a.global, a.root.Path(), b.nodes[p].Path(), met)
			}
			cg, ok := childIndex(a.global, n.kappa, met)
			if !ok {
				return fmt.Errorf("%w: frame child of area %d", ErrOverflow, a.global)
			}
			a.lower[p] = cg
			queue = append(queue, &area{global: cg, root: kids[met], rootLocal: a.slots[p], parentGlobal: a.global})
			met++
			return nil
		})
		if err != nil {
			return err
		}
		if met != len(kids) {
			return fmt.Errorf("core: area %d (%s) has %d boundary leaves, frame has %d children",
				a.global, a.root.Path(), met, len(kids))
		}
	}
	n.k = newAreaIndex(queue)
	return nil
}

// commitStamps burns the identifiers the table K implies into the tree:
// every slot's node receives the identifier resolveLocal derives for that
// slot (an area root is reached twice, through its own slot 1 and through
// its boundary slot above, with the same result), and attributes left out
// of the numbering lose any stamp from an earlier one. It returns how many
// previously numbered nodes changed identifier. The numbering must own its
// tree.
func (n *Numbering) commitStamps() (changed int) {
	n.forEachArea(func(a *area) {
		for i := 0; i < a.nodes.Len(); i++ {
			x, id := a.nodes.At(i), a.resolveLocal(i)
			if was := stampOf(x); was != id {
				if was.Global != 0 {
					changed++
				}
				id.stamp(x)
			}
			if !n.opts.WithAttrs {
				for _, at := range x.Attrs() {
					ID{}.stamp(at)
				}
			}
		}
	})
	return changed
}

// childIndex computes (i−1)·k + 2 + j with overflow detection.
func childIndex(i, k int64, j int) (int64, bool) {
	base := i - 1
	if base != 0 && base > (math.MaxInt64-int64(2+j))/k {
		return 0, false
	}
	return base*k + 2 + int64(j), true
}

// Kappa returns the frame fan-out κ.
func (n *Numbering) Kappa() int64 { return n.kappa }

// K returns the global parameter table, sorted by global index (Fig. 5).
func (n *Numbering) K() []KRow {
	rows := make([]KRow, 0, n.AreaCount())
	n.forEachArea(func(a *area) {
		rows = append(rows, KRow{Global: a.global, RootLocal: a.rootLocal, Fanout: a.fanout})
	})
	return rows
}

// AreaCount returns the number of UID-local areas.
func (n *Numbering) AreaCount() int { return n.k.rows }

// Size returns the number of numbered nodes.
func (n *Numbering) Size() int { return n.size }

// Root returns the numbered root element.
func (n *Numbering) Root() *xmltree.Node { return n.root }

// Doc returns the top of the numbered tree: the Document node above Root, or
// Root itself when the numbering was built over a bare element. A fork's
// differs from that of the numbering it was taken from once it has written.
func (n *Numbering) Doc() *xmltree.Node { return n.doc }

// MaxLocalIndex returns the largest local index in use in any area — the
// identifier-magnitude metric of experiment E3 (each ruid component stays
// small because areas are small).
func (n *Numbering) MaxLocalIndex() int64 {
	var max int64
	n.forEachArea(func(a *area) {
		if v := a.slots[len(a.slots)-1]; v > max {
			max = v
		}
	})
	return max
}

// MaxGlobalIndex returns the largest global index in use.
func (n *Numbering) MaxGlobalIndex() int64 {
	var max int64
	n.forEachArea(func(a *area) {
		if a.global > max {
			max = a.global
		}
	})
	return max
}

// RUID returns the concrete identifier of a node, and false if the node is
// not numbered: it reads the NodeNum stamp the node carries. The stamp is
// current in every numbering that reaches the node — an owning numbering
// writes it with each relabel, and a fork never shares a node whose
// identifier changed (it relabels its own copy).
func (n *Numbering) RUID(node *xmltree.Node) (ID, bool) {
	id := stampOf(node)
	return id, id.Global != 0
}

// NodeOfID resolves a concrete identifier by a seek in the clustered slot
// array of its table-K row (the same arrays the axis routines scan).
// Identifier shapes (see ID): an area root's identifier carries its own
// global index and its local slot in the upper area; an interior node's
// identifier carries its area's global index and its own slot.
func (n *Numbering) NodeOfID(id ID) (*xmltree.Node, bool) {
	a, ok := n.krow(id.Global)
	if !ok {
		return nil, false
	}
	if id.Root {
		if id != a.rootID() {
			return nil, false
		}
		return a.root, true
	}
	// Interior identifier: slot 1 is the area's own root and boundary slots
	// hold lower-area roots — both carry Root identifiers, so an interior
	// lookup there must miss.
	i, ok := a.position(id.Local)
	if !ok || id.Local == 1 || a.lower[i] != 0 {
		return nil, false
	}
	return a.nodes.At(i), true
}
