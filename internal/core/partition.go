package core

import (
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
	budget := cfg.MaxAreaNodes
	if budget <= 0 {
		budget = DefaultMaxAreaNodes
	}
	roots := map[*xmltree.Node]bool{root: true}
	queue := []*xmltree.Node{root}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		// Grow the area of r breadth-first within the budget; nodes that
		// do not fit become area roots themselves.
		count := 1
		type entry struct {
			n     *xmltree.Node
			depth int
		}
		frontier := make([]entry, 0, 8)
		for _, c := range r.StructuralChildren(withAttrs) {
			frontier = append(frontier, entry{c, 1})
		}
		for len(frontier) > 0 {
			e := frontier[0]
			frontier = frontier[1:]
			over := count >= budget || (cfg.MaxAreaDepth > 0 && e.depth > cfg.MaxAreaDepth)
			if over && len(e.n.StructuralChildren(withAttrs)) > 0 {
				// Leaf nodes never start their own areas: an area whose
				// root has no children contributes nothing.
				roots[e.n] = true
				queue = append(queue, e.n)
				continue
			}
			count++
			if over {
				continue
			}
			for _, c := range e.n.StructuralChildren(withAttrs) {
				frontier = append(frontier, entry{c, e.depth + 1})
			}
		}
	}
	if cfg.AdjustFanout {
		adjustFanout(root, roots, withAttrs)
	}
	return roots
}

// adjustFanout implements the §2.3 trick: whenever a frame node has more
// frame children than the maximal fan-out of the source tree (because
// several area roots hang below it in separate paths), the tree child on
// the most crowded path is promoted to an area root, rerouting those frame
// children below it. The pass repeats until the frame fan-out is bounded by
// the tree fan-out (which the grouping argument guarantees is reachable).
func adjustFanout(root *xmltree.Node, roots map[*xmltree.Node]bool, withAttrs bool) {
	limit := 0
	root.Walk(func(d *xmltree.Node) bool {
		if f := len(d.StructuralChildren(withAttrs)); f > limit {
			limit = f
		}
		return true
	})
	if limit < 1 {
		limit = 1
	}
	for {
		frameKids, order := frameChildren(root, roots)
		promoted := false
		for _, frameNode := range order {
			kids := frameKids[frameNode]
			if len(kids) <= limit {
				continue
			}
			// Group the frame children by the tree child of frameNode on
			// their paths and promote the child of the largest group ≥ 2.
			// kids is in document order, so each group is one contiguous
			// run, and on a tie the first run wins: the choice has to be a
			// function of the tree, or Build is not a function of its input.
			// (A child that is already an area root is its own run of one.)
			var best, cur *xmltree.Node
			bestN, curN := 1, 0
			for _, s := range kids {
				c := s
				for c.Parent != frameNode {
					c = c.Parent
				}
				if c != cur {
					cur, curN = c, 0
				}
				if curN++; curN > bestN {
					best, bestN = c, curN
				}
			}
			if best != nil {
				roots[best] = true
				promoted = true
			}
		}
		if !promoted {
			return
		}
	}
}

// frameChildren maps each area root to its frame children (the area roots
// whose nearest proper S-ancestor it is), in document order, and lists the
// area roots that have any in the order the walk first meets one.
func frameChildren(root *xmltree.Node, roots map[*xmltree.Node]bool) (kids map[*xmltree.Node][]*xmltree.Node, order []*xmltree.Node) {
	kids = make(map[*xmltree.Node][]*xmltree.Node, len(roots))
	var walk func(n, nearest *xmltree.Node)
	walk = func(n, nearest *xmltree.Node) {
		if n != root && roots[n] {
			if kids[nearest] == nil {
				order = append(order, nearest)
			}
			kids[nearest] = append(kids[nearest], n)
			nearest = n
		}
		for _, c := range n.Children {
			walk(c, nearest)
		}
	}
	walk(root, root)
	return kids, order
}

// FrameFanout returns the maximal number of frame children over all area
// roots — the κ of the frame enumeration before any level splitting.
func FrameFanout(root *xmltree.Node, roots map[*xmltree.Node]bool) int {
	max := 0
	frameKids, _ := frameChildren(root, roots)
	for _, kids := range frameKids {
		if len(kids) > max {
			max = len(kids)
		}
	}
	return max
}
