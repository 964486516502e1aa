// Package dataguide implements the structural summary of the paper's
// related work (§6: "Structural information, such as node paths, is
// extracted from the data source, classified, and then represented in a
// structure graph. The graph can be used both as an indexing structure and
// a guide by which users can perform meaningful and valid queries" —
// DataGuides, reference [4]).
//
// For tree-shaped data the strong DataGuide is a trie of label paths: one
// trie node per distinct root-to-element label path, annotated with the
// number of elements sharing it. The guide answers schema questions
// ("which paths exist?", "how many elements match /site/regions//item?")
// without touching the document, and lets the query planner refuse
// impossible name chains before running any join.
package dataguide

import (
	"sort"
	"strings"

	"repro/internal/xmltree"
)

// Node is one trie node: a distinct label path from the root.
type Node struct {
	Label    string
	Count    int // number of document elements with this label path
	Children map[string]*Node
}

// Guide is the strong DataGuide of one document.
type Guide struct {
	root  *Node // synthetic node above the document element
	paths int
}

// Build summarizes the element structure of the document rooted at doc.
func Build(doc *xmltree.Node) *Guide {
	root := doc
	if doc.Kind == xmltree.Document {
		root = doc.DocumentElement()
	}
	g := &Guide{root: &Node{Children: map[string]*Node{}}}
	if root == nil {
		return g
	}
	var walk func(x *xmltree.Node, at *Node)
	walk = func(x *xmltree.Node, at *Node) {
		if x.Kind != xmltree.Element {
			return
		}
		child := at.Children[x.Name]
		if child == nil {
			child = &Node{Label: x.Name, Children: map[string]*Node{}}
			at.Children[x.Name] = child
			g.paths++
		}
		child.Count++
		for i := 0; i < x.NumChildren(); i++ {
			walk(x.Child(i), child)
		}
	}
	walk(root, g.root)
	return g
}

// Size returns the number of distinct label paths — the guide's footprint,
// typically orders of magnitude below the node count on regular documents.
func (g *Guide) Size() int { return g.paths }

// HasChain reports whether any label path of the document contains the
// given names in order (with arbitrary gaps) — exactly the satisfiability
// question for a //n1//n2//…//nk query.
func (g *Guide) HasChain(names ...string) bool {
	if len(names) == 0 {
		return true
	}
	var walk func(at *Node, need []string) bool
	walk = func(at *Node, need []string) bool {
		if len(need) == 0 {
			return true
		}
		for _, c := range at.Children {
			rest := need
			if c.Label == need[0] {
				rest = need[1:]
				if len(rest) == 0 {
					return true
				}
			}
			if walk(c, rest) {
				return true
			}
		}
		return false
	}
	return walk(g.root, names)
}

// String renders the guide as an indented outline with counts.
func (g *Guide) String() string {
	var b strings.Builder
	var walk func(at *Node, depth int)
	walk = func(at *Node, depth int) {
		labels := make([]string, 0, len(at.Children))
		for l := range at.Children {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			c := at.Children[l]
			b.WriteString(strings.Repeat("  ", depth))
			b.WriteString(c.Label)
			b.WriteString(" (")
			b.WriteString(itoa(c.Count))
			b.WriteString(")\n")
			walk(c, depth+1)
		}
	}
	walk(g.root, 0)
	return b.String()
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
