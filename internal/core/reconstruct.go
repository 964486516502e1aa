package core

import (
	"sort"

	"repro/internal/xmltree"
)

// Reconstruction of a document portion (§3.3 of the paper): given a set of
// element identifiers — for instance the result of a query — produce "a
// portion of an XML document generated from these elements respecting the
// ancestor-descendant order existing in the source data". Both the
// ordering and the nesting decisions run on identifiers alone (CompareOrderID
// and IsAncestorID); the stored nodes are touched only to copy names,
// attributes and (optionally) text into the output.

// Reconstruct builds the document portion spanned by ids: the selected
// nodes appear in document order, nested exactly as in the source
// (non-selected intermediate ancestors are elided). Unknown identifiers are
// ignored. The result is a fresh Document node whose children are the
// top-level fragments.
func (n *Numbering) Reconstruct(ids []ID) *xmltree.Node {
	return n.reconstruct(ids, false)
}

// ReconstructWithText is Reconstruct, plus: every selected element that
// ends up a leaf of the portion receives its source string-value as a text
// child, so the fragment is readable on its own.
func (n *Numbering) ReconstructWithText(ids []ID) *xmltree.Node {
	return n.reconstruct(ids, true)
}

func (n *Numbering) reconstruct(ids []ID, withText bool) *xmltree.Node {
	// Dedupe, drop unknowns, and ensure document order — all by identifier
	// arithmetic. Query results arrive already sorted (posting sortedness is
	// a maintained index invariant and every join preserves input order), so
	// the common case detects order during the dedupe pass and never sorts;
	// only an arbitrary caller-assembled set pays the O(k log k) fallback.
	uniq := make([]ID, 0, len(ids))
	seen := make(map[ID]bool, len(ids))
	ordered := true
	for _, id := range ids {
		if !seen[id] {
			if _, ok := n.NodeOfID(id); ok {
				seen[id] = true
				if ordered && len(uniq) > 0 && n.CompareOrderID(uniq[len(uniq)-1], id) >= 0 {
					ordered = false
				}
				uniq = append(uniq, id)
			}
		}
	}
	if !ordered {
		sort.Slice(uniq, func(i, j int) bool { return n.CompareOrderID(uniq[i], uniq[j]) < 0 })
	}

	out := xmltree.NewDocument()
	type pair struct {
		id   ID
		copy *xmltree.Node
	}
	var stack []pair
	var leaves []pair
	for _, id := range uniq {
		src, _ := n.NodeOfID(id)
		cp := shallowCopy(src)
		// In document order an ancestor precedes its descendants, so the
		// enclosing selected element (if any) is on the stack: pop until
		// the top is an ancestor of the current node.
		for len(stack) > 0 && !n.IsAncestorID(stack[len(stack)-1].id, id) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			out.AppendChild(cp)
		} else {
			stack[len(stack)-1].copy.AppendChild(cp)
		}
		if cp.Kind == xmltree.Element {
			stack = append(stack, pair{id, cp})
			leaves = append(leaves, pair{id, cp})
		}
	}
	if withText {
		for _, p := range leaves {
			if p.copy.NumChildren() > 0 {
				continue
			}
			if src, _ := n.NodeOfID(p.id); src != nil {
				if txt := src.Texts(); txt != "" {
					p.copy.AppendChild(xmltree.NewText(txt))
				}
			}
		}
	}
	return out
}

func shallowCopy(src *xmltree.Node) *xmltree.Node {
	c := &xmltree.Node{Kind: src.Kind, Name: src.Name, Data: src.Data}
	for _, a := range src.Attrs() {
		c.SetAttr(a.Name, a.Data)
	}
	return c
}
