package core

import (
	"slices"
	"sort"

	"repro/internal/xmltree"
)

// Partitioning: selecting the set S of area roots. Given S (which always
// contains the document root), the UID-local areas and the frame are fully
// determined (Definitions 1 and 2): the area of a root r ∈ S consists of r
// plus every node whose nearest proper S-ancestor is r; members of S other
// than r that fall in the area are its boundary leaves ("joints"), and the
// frame F connects each s ∈ S to its nearest proper S-ancestor.
//
// The paper leaves the choice of S open and only requires the κ-adjustment
// trick of §2.3; we provide a size/depth-budgeted top-down selector plus
// that adjustment pass.
//
// The frame is derived from the tree once (deriveFrame) and from then on
// maintained: adding a node to S edits the child lists of the one frame node
// above it and of the new frame node itself, and nothing else.

// PartitionConfig controls automatic area-root selection.
type PartitionConfig struct {
	// MaxAreaNodes caps the number of nodes enumerated inside one area
	// (boundary leaves included). Nodes beyond the budget start new areas.
	// Zero means DefaultMaxAreaNodes.
	MaxAreaNodes int
	// MaxAreaDepth caps the depth (in edges from the area root) of nodes
	// inside one area; deeper nodes start new areas. Zero means unlimited.
	MaxAreaDepth int
	// AdjustFanout applies the §2.3 supplementation pass: extra area roots
	// are added until the frame fan-out κ does not exceed the maximal
	// fan-out of the source tree.
	AdjustFanout bool
	// MaxLocalBits bounds the bit length of any local index: a node whose
	// children's kᵢ-ary indices would exceed 2^MaxLocalBits is promoted to
	// an area root, splitting the area there. This keeps every ruid
	// component machine-sized even on areas that mix a wide node with a
	// deep path (where the local UID's k^depth growth reappears in
	// miniature). Zero means DefaultMaxLocalBits; 63 disables the bound
	// short of actual int64 overflow.
	MaxLocalBits int
}

// DefaultMaxLocalBits is the local-index magnitude bound used when
// PartitionConfig leaves MaxLocalBits zero.
const DefaultMaxLocalBits = 32

// DefaultMaxAreaNodes is the area budget used when PartitionConfig leaves
// MaxAreaNodes zero. Areas of a few dozen nodes keep local fan-outs (and
// hence local identifier magnitudes) small while the frame stays tiny.
const DefaultMaxAreaNodes = 64

// SelectAreaRoots chooses the set S of area roots for the tree rooted at
// root, per cfg. The returned set always contains root.
func SelectAreaRoots(root *xmltree.Node, cfg PartitionConfig, withAttrs bool) map[*xmltree.Node]bool {
	return selectFrame(root, cfg, withAttrs).roots
}

// visitHook, when non-nil, is called once for every node the partitioning
// and the frame's derivation and adjustment visit. Tests use it to hold the
// pass to a constant number of walks over the tree.
var visitHook func()

func visited() {
	if visitHook != nil {
		visitHook()
	}
}

// frame is the tree F of Definition 2 as the builder keeps it: the set S
// and, for every area root that has any, its frame children (the area roots
// whose nearest proper S-ancestor it is) in document order.
type frame struct {
	roots map[*xmltree.Node]bool
	kids  map[*xmltree.Node][]*xmltree.Node
	limit int // maximal fan-out of the source tree: §2.3's bound on κ
}

// selectFrame partitions the tree under root per cfg and returns the frame
// of the chosen S, fan-out adjusted when cfg asks for it.
func selectFrame(root *xmltree.Node, cfg PartitionConfig, withAttrs bool) *frame {
	budget := cfg.MaxAreaNodes
	if budget <= 0 {
		budget = DefaultMaxAreaNodes
	}
	type entry struct {
		n     *xmltree.Node
		depth int
	}
	roots := map[*xmltree.Node]bool{root: true}
	queue := []*xmltree.Node{root}
	var frontier []entry     // one buffer, reused by every area
	var kids []*xmltree.Node // and one for the children of the node at hand
	for qi := 0; qi < len(queue); qi++ {
		// Grow the area of the next root breadth-first within the budget;
		// nodes that do not fit become area roots themselves.
		count := 1
		frontier = frontier[:0]
		kids = queue[qi].StructuralChildren(kids[:0], withAttrs)
		for _, c := range kids {
			frontier = append(frontier, entry{c, 1})
		}
		for fi := 0; fi < len(frontier); fi++ {
			e := frontier[fi]
			visited()
			over := count >= budget || (cfg.MaxAreaDepth > 0 && e.depth > cfg.MaxAreaDepth)
			if over && e.n.StructuralFanout(withAttrs) > 0 {
				// Leaf nodes never start their own areas: an area whose
				// root has no children contributes nothing.
				roots[e.n] = true
				queue = append(queue, e.n)
				continue
			}
			count++
			if !over {
				kids = e.n.StructuralChildren(kids[:0], withAttrs)
				for _, c := range kids {
					frontier = append(frontier, entry{c, e.depth + 1})
				}
			}
		}
	}
	f, parents := deriveFrame(root, roots, withAttrs)
	if cfg.AdjustFanout {
		for _, up := range parents {
			f.adjust(up, nil)
		}
	}
	return f
}

// deriveFrame reads the frame of the area-root set roots off the tree in one
// walk, which also finds the tree's maximal fan-out. parents lists the frame
// nodes that have children, in the order the walk met them.
func deriveFrame(root *xmltree.Node, roots map[*xmltree.Node]bool, withAttrs bool) (f *frame, parents []*xmltree.Node) {
	f = &frame{roots: roots, kids: make(map[*xmltree.Node][]*xmltree.Node), limit: 1}
	var walk func(x, nearest *xmltree.Node)
	walk = func(x, nearest *xmltree.Node) {
		visited()
		if x != root && roots[x] {
			if f.kids[nearest] == nil {
				parents = append(parents, nearest)
			}
			f.kids[nearest] = append(f.kids[nearest], x)
			nearest = x
		}
		f.limit = max(f.limit, x.StructuralFanout(withAttrs))
		for i := 0; i < x.Children.Len(); i++ {
			walk(x.Children.At(i), nearest)
		}
	}
	walk(root, root)
	return f, parents
}

// splice makes c, a node in the area of frame node up, an area root: the
// frame children kids[up][lo:hi] — the ones below c, contiguous because the
// list is in document order — become c's, and c takes their place.
func (f *frame) splice(up *xmltree.Node, lo, hi int, c *xmltree.Node) {
	f.roots[c] = true
	kids := f.kids[up]
	if lo < hi {
		f.kids[c] = slices.Clone(kids[lo:hi])
	}
	f.kids[up] = slices.Replace(kids, lo, hi, c)
}

// promote adds x, any node that is not an area root yet, to S and returns
// the frame node above it. It climbs Parent, so it runs only on a fresh parse
// (Build) or on ownAll's clone (a heal).
func (f *frame) promote(x *xmltree.Node) (up *xmltree.Node) {
	for up = x.Parent; !f.roots[up]; up = up.Parent {
	}
	kids := f.kids[up]
	// x precedes its descendants and nothing else comes between them.
	lo := sort.Search(len(kids), func(i int) bool { return xmltree.CompareOrder(kids[i], x) > 0 })
	hi := lo
	for hi < len(kids) && xmltree.IsAncestor(x, kids[hi]) {
		hi++
	}
	f.splice(up, lo, hi, x)
	return up
}

// adjust implements the §2.3 trick at frame node up: while it has more frame
// children than the maximal fan-out of the source tree (because several area
// roots hang below it in separate paths), the tree child on the most crowded
// path is promoted to an area root, rerouting those frame children below it —
// until the frame fan-out is bounded by the tree fan-out (which the grouping
// argument guarantees is reachable) or no two frame children share a path —
// and is adjusted in turn.
//
// A promotion under a frame node changes that node's children and creates
// the promoted child's; no other frame node's children move. What is
// promoted under a node therefore depends on that node alone, the set S
// reached does not depend on the order the nodes are taken in, and only the
// promoted child needs a visit of its own.
//
// paths[i] is the tree path from frame child i up to the child of up it
// hangs under (itself, if it is that child): climbed here when the caller
// has none, and handed down one step shorter to each child promoted.
func (f *frame) adjust(up *xmltree.Node, paths [][]*xmltree.Node) {
	kids := f.kids[up]
	if len(kids) <= f.limit {
		return
	}
	if paths == nil {
		paths = make([][]*xmltree.Node, len(kids))
		var buf []*xmltree.Node
		for i, c := range kids {
			from := len(buf)
			for ; c != up; c = c.Parent {
				visited()
				buf = append(buf, c)
			}
			paths[i] = buf[from:len(buf):len(buf)]
		}
	}
	via := func(i int) *xmltree.Node { return paths[i][len(paths[i])-1] }
	for len(kids) > f.limit {
		// Promote the child with the largest run of ≥ 2 frame children below
		// it. kids is in document order, so each child's run is contiguous,
		// and on a tie the first run wins: the choice has to be a function of
		// the tree, or Build is not a function of its input.
		lo, n := 0, 1
		for i := 0; i < len(kids); {
			j := i + 1
			for j < len(kids) && via(j) == via(i) {
				j++
			}
			if j-i > n {
				lo, n = i, j-i
			}
			i = j
		}
		if n < 2 {
			return
		}
		c, own := via(lo), paths[lo][len(paths[lo])-1:]
		below := make([][]*xmltree.Node, n)
		for i := range below {
			below[i] = paths[lo+i][:len(paths[lo+i])-1]
		}
		f.splice(up, lo, lo+n, c)
		kids = f.kids[up]
		paths = slices.Replace(paths, lo, lo+n, own)
		f.adjust(c, below)
	}
}
