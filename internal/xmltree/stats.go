package xmltree

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes the topology of a tree. The quantities mirror the
// parameters the paper's analysis depends on: node count, maximal fan-out
// (the k of the original UID), depth (the exponent of identifier growth),
// and the fan-out distribution (the source of virtual-node waste).
type Stats struct {
	Nodes       int   // nodes excluding attributes
	Attributes  int   // attribute nodes
	Elements    int   // element nodes
	TextNodes   int   // text nodes
	MaxFanout   int   // maximal number of children over all nodes
	MaxDepth    int   // longest root-to-leaf path, in edges
	Leaves      int   // nodes with no children
	FanoutHist  []int // FanoutHist[f] = number of internal nodes with fan-out f
	TotalFanout int   // sum of fan-outs (== Nodes-1 for a tree rooted at the walked node)
}

// Measure walks the subtree rooted at n (attributes excluded from fan-out)
// and returns its Stats. Depth is counted on the way down, so Measure reads
// no Parent pointer.
func Measure(n *Node) Stats {
	var s Stats
	var walk func(d *Node, depth int)
	walk = func(d *Node, depth int) {
		s.Nodes++
		s.Attributes += len(d.Attrs)
		switch d.Kind {
		case Element:
			s.Elements++
		case Text:
			s.TextNodes++
		}
		s.MaxDepth = max(s.MaxDepth, depth)
		f := d.Children.Len()
		if f == 0 {
			s.Leaves++
			return
		}
		for len(s.FanoutHist) <= f {
			s.FanoutHist = append(s.FanoutHist, 0)
		}
		s.FanoutHist[f]++
		s.TotalFanout += f
		s.MaxFanout = max(s.MaxFanout, f)
		for i := 0; i < f; i++ {
			walk(d.Children.At(i), depth+1)
		}
	}
	walk(n, 0)
	return s
}

// AvgFanout returns the mean fan-out over internal nodes, or 0 for a
// single-node tree.
func (s Stats) AvgFanout() float64 {
	internal := s.Nodes - s.Leaves
	if internal == 0 {
		return 0
	}
	return float64(s.TotalFanout) / float64(internal)
}

// String renders the statistics on one line.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d elements=%d text=%d attrs=%d maxFanout=%d avgFanout=%.2f maxDepth=%d leaves=%d",
		s.Nodes, s.Elements, s.TextNodes, s.Attributes, s.MaxFanout, s.AvgFanout(), s.MaxDepth, s.Leaves)
}

// MaxFanout returns the maximal fan-out (number of children) over the
// subtree rooted at n, the k parameter of the original UID scheme.
func MaxFanout(n *Node) int {
	max := 0
	n.Walk(func(d *Node) bool {
		if d.Children.Len() > max {
			max = d.Children.Len()
		}
		return true
	})
	return max
}

// CountNodes returns the number of nodes in the subtree rooted at n,
// excluding attributes.
func CountNodes(n *Node) int {
	c := 0
	n.Walk(func(*Node) bool { c++; return true })
	return c
}

// MaxDepth returns the length (in edges) of the longest downward path from n.
func MaxDepth(n *Node) int {
	max := 0
	var walk func(d *Node, depth int)
	walk = func(d *Node, depth int) {
		if depth > max {
			max = depth
		}
		for i := 0; i < d.Children.Len(); i++ {
			walk(d.Children.At(i), depth+1)
		}
	}
	walk(n, 0)
	return max
}

// Sketch renders the element structure of a tree as an indented outline,
// useful in golden tests and example output. Depth is limited to maxDepth
// levels below n (-1 for unlimited).
func Sketch(n *Node, maxDepth int) string {
	var b strings.Builder
	var walk func(d *Node, depth int)
	walk = func(d *Node, depth int) {
		if maxDepth >= 0 && depth > maxDepth {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		switch d.Kind {
		case Element:
			b.WriteString(d.Name)
		case Text:
			t := d.Data
			if len(t) > 20 {
				t = t[:20] + "..."
			}
			fmt.Fprintf(&b, "%q", t)
		default:
			b.WriteString(d.Kind.String())
		}
		b.WriteByte('\n')
		for i := 0; i < d.Children.Len(); i++ {
			walk(d.Children.At(i), depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// NameHistogram counts descendant-or-self elements of n by name.
func NameHistogram(n *Node) map[string]int {
	h := make(map[string]int)
	n.Walk(func(d *Node) bool {
		if d.Kind == Element {
			h[d.Name]++
		}
		return true
	})
	return h
}

// SortedNames returns the element names of a histogram in decreasing count
// order (ties broken alphabetically).
func SortedNames(h map[string]int) []string {
	names := make([]string, 0, len(h))
	for n := range h {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if h[names[i]] != h[names[j]] {
			return h[names[i]] > h[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
