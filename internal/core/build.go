package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// ErrOverflow reports that an index computation exceeded int64. Local-level
// overflows during Build are healed automatically by promoting the
// offending node to an area root; a global-level overflow signals that the
// frame itself should be split with a multilevel ruid.
var ErrOverflow = errors.New("core: index exceeds int64")

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

// errorsAs is errors.As, aliased to keep the promotion loops readable.
func errorsAs(err error, target **overflowError) bool { return errors.As(err, target) }

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

	// rootByLocal maps a local slot of this area to the global index of
	// the lower area rooted there (the boundary leaves). It is the
	// materialization of the paper's "search K for a row whose global
	// index is a frame child of θ and whose local index is i".
	rootByLocal map[int64]int64

	// locals maps local index -> node for every node enumerated in this
	// area, including boundary leaves that are roots of lower areas (their
	// stored ID differs, but they occupy a local slot here). It models the
	// clustered (global, local) index of the stored document.
	locals map[int64]*xmltree.Node

	// sortedLocals holds the keys of locals in increasing order — the
	// clustered index the axis routines range-scan. It is rebuilt as a fresh
	// slice whenever locals is (never edited in place), so a copy of the
	// area struct, or an epoch row sharing the slice, stays valid.
	sortedLocals []int64
}

// sortLocals rebuilds sortedLocals from locals.
func (a *area) sortLocals() {
	s := make([]int64, 0, len(a.locals))
	for l := range a.locals {
		s = append(s, l)
	}
	slices.Sort(s)
	a.sortedLocals = s
}

// Numbering is a 2-level ruid numbering of one document snapshot.
// It implements scheme.AxisScheme and scheme.Updatable.
//
// The binding between nodes and identifiers has one form: a numbered node
// carries its identifier in its xmltree.NodeNum stamp (RUID reads it), and
// an identifier resolves to its node through the slot maps of its table-K
// row (NodeOfID). There is no per-node table beside those two, so a tree
// carries at most one ruid numbering at a time (see Build).
//
// What differs between the two representations is only how table K is held
// and whether it may change:
//
//   - master mode (the output of Build and Load): K is the mutable map
//     areas, the area-root set S is kept, and structural updates are
//     accepted;
//   - epoch mode (the output of CloneFor and CloneDelta): K is the
//     persistent chunked index areaIdx, sorted by global index, whose
//     untouched rows each publication shares with the previous epoch. Epoch
//     numberings are immutable and reject updates with ErrImmutable.
type Numbering struct {
	doc  *xmltree.Node
	root *xmltree.Node
	opts Options

	kappa      int64 // frame fan-out κ
	localLimit int64 // largest admissible local index (see MaxLocalBits)
	size       int   // numbered-node count

	areas     map[int64]*area        // by global index; the table K (master mode)
	areaRoots map[*xmltree.Node]bool // current set S (master mode)

	areaIdx *areaIndex // the table K, chunked and sorted by global index (epoch mode)
}

// epochMode reports whether n is an immutable epoch clone.
func (n *Numbering) epochMode() bool { return n.areas == nil }

// forEachArea visits every K row in either representation.
func (n *Numbering) forEachArea(fn func(*area)) {
	if n.areas != nil {
		for _, a := range n.areas {
			fn(a)
		}
		return
	}
	n.areaIdx.forEach(fn)
}

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
	n.assertK("Build")
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
		if !errorsAs(err, &ov) || ov.node == nil || f.roots[ov.node] {
			return err
		}
		up := f.promote(ov.node)
		if adjust {
			f.adjust([]*xmltree.Node{up, ov.node})
		}
	}
}

// renumberAll recomputes κ and the table K from the current tree and the
// frame f, whose area-root set becomes the numbering's (steps 2–4 of
// Fig. 3).
func (n *Numbering) renumberAll(f *frame) error {
	n.areaRoots = f.roots

	// Step 2: κ is the maximal fan-out of the frame.
	n.kappa = 1
	for _, kids := range f.kids {
		if int64(len(kids)) > n.kappa {
			n.kappa = int64(len(kids))
		}
	}

	n.areas = make(map[int64]*area)
	n.size = 0

	// Step 3: enumerate the frame with a κ-ary UID (global indices), then
	// each area with its own local UID. An area root's local index in the
	// upper area (step 4's half of its identifier) is known once the upper
	// area is enumerated, so areas are processed top-down and each job
	// carries it.
	type job struct {
		root         *xmltree.Node
		global       int64
		parentGlobal int64
		rootLocal    int64
	}
	queue := []job{{n.root, 1, 0, 1}}
	for qi := 0; qi < len(queue); qi++ {
		j := queue[qi]
		a := &area{
			global:       j.global,
			root:         j.root,
			rootLocal:    j.rootLocal,
			parentGlobal: j.parentGlobal,
			locals:       make(map[int64]*xmltree.Node),
			rootByLocal:  make(map[int64]int64),
		}
		n.areas[j.global] = a
		boundary, err := n.enumerateArea(a)
		if err != nil {
			return err
		}
		// The boundary leaves and the frame children of this area are the
		// same nodes, both in document order.
		kids := f.kids[j.root]
		if len(boundary) != len(kids) {
			return fmt.Errorf("core: area %d (%s) has %d boundary leaves, frame has %d children",
				j.global, j.root.Path(), len(boundary), len(kids))
		}
		for idx, kid := range kids {
			cg, ok := childIndex(j.global, n.kappa, idx)
			if !ok {
				return fmt.Errorf("%w: frame child of area %d", ErrOverflow, j.global)
			}
			a.rootByLocal[boundary[idx]] = cg
			queue = append(queue, job{kid, cg, j.global, boundary[idx]})
		}
	}
	return nil
}

// enumerateArea performs steps 5–6 of Fig. 3 for one area: find the local
// maximal fan-out kᵢ and assign local indices via a kᵢ-ary tree. It returns
// the slots of the boundary leaves (roots of lower areas) in document order.
func (n *Numbering) enumerateArea(a *area) ([]int64, error) {
	a.fanout = n.areaFanout(a)
	var boundary []int64
	var assign func(x *xmltree.Node, local int64) error
	assign = func(x *xmltree.Node, local int64) error {
		a.locals[local] = x
		if x != a.root && n.areaRoots[x] {
			// Boundary leaf: a lower area continues below.
			boundary = append(boundary, local)
			return nil
		}
		n.size++
		for j, c := range x.StructuralChildren(n.opts.WithAttrs) {
			cl, ok := childIndex(local, a.fanout, j)
			if !ok || cl > n.localLimit {
				return &overflowError{area: a.global, node: x}
			}
			if err := assign(c, cl); err != nil {
				return err
			}
		}
		return nil
	}
	if err := assign(a.root, 1); err != nil {
		return nil, err
	}
	a.sortLocals()
	return boundary, nil
}

// commitStamps burns the identifiers the table K implies into the tree:
// every slot's node receives the identifier resolveLocal derives for that
// slot (an area root is reached twice, through its own slot 1 and through
// its boundary slot above, with the same result), and attributes left out
// of the numbering lose any stamp from an earlier one. It returns how many
// previously numbered nodes changed identifier. Master mode only.
func (n *Numbering) commitStamps() (changed int) {
	for _, a := range n.areas {
		for slot, x := range a.locals {
			num := a.resolveLocal(slot).stamp()
			if x.Num != num {
				if x.Num.G != 0 {
					changed++
				}
				x.Num = num
			}
			if !n.opts.WithAttrs {
				for _, at := range x.Attrs {
					at.Num = xmltree.NodeNum{}
				}
			}
		}
	}
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
	// The chunked index visits in order already; the master's map does not.
	slices.SortFunc(rows, func(x, y KRow) int { return cmp.Compare(x.Global, y.Global) })
	return rows
}

// AreaCount returns the number of UID-local areas.
func (n *Numbering) AreaCount() int {
	if n.epochMode() {
		return n.areaIdx.rows
	}
	return len(n.areas)
}

// Size returns the number of numbered nodes.
func (n *Numbering) Size() int { return n.size }

// Root returns the numbered root element.
func (n *Numbering) Root() *xmltree.Node { return n.root }

// MaxLocalIndex returns the largest local index in use in any area — the
// identifier-magnitude metric of experiment E3 (each ruid component stays
// small because areas are small).
func (n *Numbering) MaxLocalIndex() int64 {
	var max int64
	n.forEachArea(func(a *area) {
		if len(a.sortedLocals) > 0 {
			if v := a.sortedLocals[len(a.sortedLocals)-1]; v > max {
				max = v
			}
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

// Name implements scheme.Scheme.
func (n *Numbering) Name() string { return "ruid" }

// IDOf implements scheme.Scheme.
func (n *Numbering) IDOf(node *xmltree.Node) (scheme.ID, bool) {
	id, ok := n.RUID(node)
	if !ok {
		return nil, false
	}
	return id, true
}

// RUID returns the concrete identifier of a node, and false if the node is
// not numbered: it reads the NodeNum stamp the node carries. The stamp is
// current in every numbering that reaches the node — the master writes it
// with each relabel, and an epoch never shares a node whose identifier
// changed (such a node is copied afresh, stamp included).
func (n *Numbering) RUID(node *xmltree.Node) (ID, bool) {
	num := node.Num
	return ID{Global: num.G, Local: num.L, Root: num.R}, num.G != 0
}

// NodeOf implements scheme.Scheme.
func (n *Numbering) NodeOf(id scheme.ID) (*xmltree.Node, bool) {
	return n.NodeOfID(id.(ID))
}

// NodeOfID resolves a concrete identifier through the clustered slot maps
// of its table-K row (the same structures the axis routines scan).
// Identifier shapes (see ID): an area root's identifier carries its own
// global index and its local slot in the upper area; an interior node's
// identifier carries its area's global index and its own slot.
func (n *Numbering) NodeOfID(id ID) (*xmltree.Node, bool) {
	a, ok := n.krow(id.Global)
	if !ok {
		return nil, false
	}
	if id.Root {
		if id.Global == 1 {
			// The document root's identifier is exactly RootID.
			if id != RootID {
				return nil, false
			}
			return a.root, true
		}
		if a.rootLocal != id.Local {
			return nil, false
		}
		return a.root, true
	}
	// Interior identifier: slot 1 is the area's own root and boundary slots
	// hold lower-area roots — both carry Root identifiers, so an interior
	// lookup there must miss.
	if id.Local == 1 {
		return nil, false
	}
	if _, boundary := a.rootByLocal[id.Local]; boundary {
		return nil, false
	}
	node, ok := a.locals[id.Local]
	return node, ok
}
