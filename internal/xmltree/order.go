package xmltree

// Ground-truth structural predicates, computed directly from parent
// pointers. Every numbering scheme in this repository is validated against
// these definitions.

// IsAncestor reports whether anc is a proper ancestor of desc.
func IsAncestor(anc, desc *Node) bool {
	for p := desc.Parent; p != nil; p = p.Parent {
		if p == anc {
			return true
		}
	}
	return false
}

// Ancestors returns the proper ancestors of n from parent up to the root.
func Ancestors(n *Node) []*Node {
	var out []*Node
	for p := n.Parent; p != nil; p = p.Parent {
		out = append(out, p)
	}
	return out
}

// LowestCommonAncestor returns the deepest node that is an
// ancestor-or-self of both a and b, or nil if they are in different trees.
func LowestCommonAncestor(a, b *Node) *Node {
	da, db := a.Depth(), b.Depth()
	for da > db {
		a, da = a.Parent, da-1
	}
	for db > da {
		b, db = b.Parent, db-1
	}
	for a != b {
		if a == nil || b == nil {
			return nil
		}
		a, b = a.Parent, b.Parent
	}
	return a
}

// CompareOrder compares two nodes in document order: -1 if a precedes b,
// +1 if a follows b, 0 if a == b. An ancestor precedes its descendants.
// Attribute nodes order directly after their owner element and before its
// children, in attribute-list order. It panics if the nodes belong to
// different trees.
func CompareOrder(a, b *Node) int {
	if a == b {
		return 0
	}
	// Lift attribute nodes: compare their owning elements first; attributes
	// of the same element compare by list position, and an attribute of e
	// follows e itself but precedes everything else under e.
	if a.Kind == Attribute || b.Kind == Attribute {
		ea, eb := a, b
		if a.Kind == Attribute {
			ea = a.Parent
		}
		if b.Kind == Attribute {
			eb = b.Parent
		}
		if ea == eb {
			switch {
			case a.Kind != Attribute: // a is the element itself
				return -1
			case b.Kind != Attribute:
				return 1
			default:
				if a.Index() < b.Index() {
					return -1
				}
				return 1
			}
		}
		if a.Kind == Attribute && (eb == ea || IsAncestor(ea, eb)) {
			return -1 // a's element is an ancestor of b: attribute first
		}
		if b.Kind == Attribute && (ea == eb || IsAncestor(eb, ea)) {
			return 1
		}
		return CompareOrder(ea, eb)
	}
	if IsAncestor(a, b) {
		return -1
	}
	if IsAncestor(b, a) {
		return 1
	}
	// Lemma 2 of the paper: project both nodes onto the children of their
	// lowest common ancestor and compare sibling positions.
	lca := LowestCommonAncestor(a, b)
	if lca == nil {
		panic("xmltree: CompareOrder across different trees")
	}
	ca := childOnPath(lca, a)
	cb := childOnPath(lca, b)
	if ca.Index() < cb.Index() {
		return -1
	}
	return 1
}

// childOnPath returns the child of anc that lies on the path from anc to
// desc (desc itself if it is a direct child).
func childOnPath(anc, desc *Node) *Node {
	cur := desc
	for cur.Parent != anc {
		cur = cur.Parent
		if cur == nil {
			panic("xmltree: childOnPath: not a descendant")
		}
	}
	return cur
}

// Preceding returns every node that precedes n in document order and is not
// an ancestor of n (the XPath preceding axis), excluding attributes.
func Preceding(n *Node) []*Node {
	var out []*Node
	n.Root().Walk(func(d *Node) bool {
		if d == n {
			return false
		}
		if IsAncestor(d, n) {
			return true // descend, but the ancestor itself is excluded
		}
		if CompareOrder(d, n) < 0 {
			out = append(out, d)
		}
		return true
	})
	return out
}

// Following returns every node that follows n in document order and is not
// a descendant of n (the XPath following axis), excluding attributes.
func Following(n *Node) []*Node {
	var out []*Node
	n.Root().Walk(func(d *Node) bool {
		if d == n {
			return false // skip n's whole subtree
		}
		if d != n && !IsAncestor(d, n) && CompareOrder(d, n) > 0 {
			out = append(out, d)
		}
		return true
	})
	return out
}

// FollowingSiblings returns the siblings of n that come after it.
func FollowingSiblings(n *Node) []*Node {
	if n.Parent == nil || n.Kind == Attribute {
		return nil
	}
	return n.Parent.Children.AppendTo(nil)[n.Index()+1:]
}

// PrecedingSiblings returns the siblings of n that come before it, in
// reverse document order (nearest first), matching the XPath axis.
func PrecedingSiblings(n *Node) []*Node {
	if n.Parent == nil || n.Kind == Attribute {
		return nil
	}
	i := n.Index()
	out := make([]*Node, 0, i)
	for j := i - 1; j >= 0; j-- {
		out = append(out, n.Parent.Children.At(j))
	}
	return out
}

// Descendants returns all proper descendants of n in document order,
// excluding attributes.
func Descendants(n *Node) []*Node {
	var out []*Node
	for i := 0; i < n.Children.Len(); i++ {
		n.Children.At(i).Walk(func(d *Node) bool {
			out = append(out, d)
			return true
		})
	}
	return out
}
