// Package ancestry implements Fraigniaud–Korman style compact ancestry
// labels over a heavy-path decomposition of the document tree.
//
// Every root-to-node path is summarized by the sequence of its *light*
// edges: at each internal node the child with the largest subtree is the
// heavy child, and the (at most ⌊log₂ n⌋) steps of a root path that leave
// the heavy child are recorded as (depth, child-rank) pairs. A node's label
// is its depth plus this light sequence — the whole path is reconstructible
// by following heavy children except at the recorded depths, so the label
// identifies the node and the ancestry test needs nothing else:
//
//	u is a proper ancestor of v  ⇔  depth(u) < depth(v),
//	    lightSeq(u) is a prefix of lightSeq(v), and the first entry of
//	    lightSeq(v) beyond that prefix (if any) lies deeper than depth(u).
//
// That is the small-depth/compact trade the PAPERS.md survey contrasts with
// interval and UID-family schemes: O(log n) words per label, constant-time
// ancestry, but no identifier arithmetic — parents and siblings cannot be
// *generated*, only *tested*. The scheme is therefore registered read-only
// and without axis support; the planner pairs it with the comparison-only
// merge kernels.
//
// A preorder rank rides along in each identifier as the document-order
// component (scheme.ID keys must sort in document order for the storage
// layer); the ancestry decision itself never reads it.
package ancestry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// ErrReadOnly is returned by the mutating entry points the scheme does not
// support; it exists so callers can distinguish "unsupported by design"
// from transient failures.
var ErrReadOnly = errors.New("ancestry: scheme is read-only")

// ID is a compact ancestry label: depth, packed light sequence, and the
// preorder rank used only for document order and index keys.
type ID struct {
	Pre   int64
	Depth int32
	// light packs the light-edge sequence as big-endian (uint32 depth,
	// uint32 child-rank) pairs, ordered by increasing depth. Packing as a
	// string keeps ID comparable.
	light string
}

// String renders the label as depth:(d→c,…)@pre.
func (id ID) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:(", id.Depth)
	for i := 0; i+8 <= len(id.light); i += 8 {
		if i > 0 {
			b.WriteByte(',')
		}
		d := binary.BigEndian.Uint32([]byte(id.light[i : i+4]))
		c := binary.BigEndian.Uint32([]byte(id.light[i+4 : i+8]))
		fmt.Fprintf(&b, "%d→%d", d, c)
	}
	fmt.Fprintf(&b, ")@%d", id.Pre)
	return b.String()
}

// Key implements scheme.ID: the big-endian preorder rank, so bytes.Compare
// on keys is document order.
func (id ID) Key() []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], uint64(id.Pre))
	return k[:]
}

// labelKey is the ancestry-relevant part of the identifier (depth + light
// sequence); it determines the node uniquely.
func (id ID) labelKey() string {
	var d [4]byte
	binary.BigEndian.PutUint32(d[:], uint32(id.Depth))
	return string(d[:]) + id.light
}

// LightEdges returns the number of light edges recorded in the label.
func (id ID) LightEdges() int { return len(id.light) / 8 }

// Numbering is a compact ancestry labeling of one tree snapshot. It
// implements scheme.Scheme, scheme.Depther and scheme.LabelSizer; it is
// deliberately not an AxisScheme and not Updatable.
type Numbering struct {
	root    *xmltree.Node
	ids     map[*xmltree.Node]ID
	byPre   []*xmltree.Node
	byLabel map[string]*xmltree.Node

	labelBits int // compact-label footprint, in bits
}

// Build labels doc (a Document node or an element treated as root).
func Build(doc *xmltree.Node) (*Numbering, error) {
	root := doc
	if doc.Kind == xmltree.Document {
		root = doc.DocumentElement()
		if root == nil {
			return nil, errors.New("ancestry: document has no root element")
		}
	}
	n := &Numbering{
		root:    root,
		ids:     make(map[*xmltree.Node]ID),
		byLabel: make(map[string]*xmltree.Node),
	}

	// Subtree sizes drive the heavy-child choice.
	size := make(map[*xmltree.Node]int)
	var measure func(d *xmltree.Node) int
	measure = func(d *xmltree.Node) int {
		s := 1
		for i := 0; i < d.NumChildren(); i++ {
			s += measure(d.Child(i))
		}
		size[d] = s
		return s
	}
	measure(root)

	var pre int64
	var walk func(d *xmltree.Node, depth int32, light string)
	walk = func(d *xmltree.Node, depth int32, light string) {
		id := ID{Pre: pre, Depth: depth, light: light}
		pre++
		n.ids[d] = id
		n.byPre = append(n.byPre, d)
		n.byLabel[id.labelKey()] = d
		n.labelBits += labelBits(id)

		heavy := -1
		best := -1
		for i := 0; i < d.NumChildren(); i++ {
			c := d.Child(i)
			if size[c] > best {
				best, heavy = size[c], i
			}
		}
		for i := 0; i < d.NumChildren(); i++ {
			c := d.Child(i)
			if i == heavy {
				walk(c, depth+1, light)
				continue
			}
			var e [8]byte
			binary.BigEndian.PutUint32(e[:4], uint32(depth)+1)
			binary.BigEndian.PutUint32(e[4:], uint32(i)+1)
			walk(c, depth+1, light+string(e[:]))
		}
	}
	walk(root, 0, "")
	return n, nil
}

// labelBits charges the information-theoretic size of the compact label:
// a varint for the depth plus a varint pair per light edge. The preorder
// crutch is charged too — it is part of what this implementation stores.
func labelBits(id ID) int {
	bits := varintBits(uint64(id.Depth)) + varintBits(uint64(id.Pre))
	for i := 0; i+8 <= len(id.light); i += 8 {
		d := binary.BigEndian.Uint32([]byte(id.light[i : i+4]))
		c := binary.BigEndian.Uint32([]byte(id.light[i+4 : i+8]))
		bits += varintBits(uint64(d)) + varintBits(uint64(c))
	}
	return bits
}

func varintBits(v uint64) int {
	n := 8
	for v >= 0x80 {
		v >>= 7
		n += 8
	}
	return n
}

// Name implements scheme.Scheme.
func (n *Numbering) Name() string { return "ancestry" }

// Size returns the number of labeled nodes.
func (n *Numbering) Size() int { return len(n.ids) }

// LabelBytes implements scheme.LabelSizer: total varint-coded label
// footprint, rounded up per node during accumulation.
func (n *Numbering) LabelBytes() int { return (n.labelBits + 7) / 8 }

// IDOf implements scheme.Scheme.
func (n *Numbering) IDOf(node *xmltree.Node) (scheme.ID, bool) {
	id, ok := n.ids[node]
	if !ok {
		return nil, false
	}
	return id, true
}

// NodeOf implements scheme.Scheme.
func (n *Numbering) NodeOf(id scheme.ID) (*xmltree.Node, bool) {
	aid, ok := id.(ID)
	if !ok {
		return nil, false
	}
	if aid.Pre < 0 || aid.Pre >= int64(len(n.byPre)) {
		return nil, false
	}
	node := n.byPre[aid.Pre]
	if n.ids[node] != aid {
		return nil, false
	}
	return node, true
}

// Parent implements scheme.Scheme. The *label* of the parent is computed
// from the child's label alone — drop the last light entry if it sits at
// the child's depth (the child was reached over a light edge), keep the
// sequence otherwise, and decrement the depth — but recovering the parent's
// preorder rank requires the byLabel table. That stored-lookup step is why
// the scheme does not claim the ComputedParent capability.
func (n *Numbering) Parent(id scheme.ID) (scheme.ID, bool) {
	aid, ok := id.(ID)
	if !ok || aid.Depth == 0 {
		return nil, false
	}
	light := aid.light
	if l := len(light); l >= 8 {
		lastDepth := binary.BigEndian.Uint32([]byte(light[l-8 : l-4]))
		if lastDepth == uint32(aid.Depth) {
			light = light[:l-8]
		}
	}
	probe := ID{Depth: aid.Depth - 1, light: light}
	node, ok := n.byLabel[probe.labelKey()]
	if !ok {
		return nil, false
	}
	return n.ids[node], true
}

// IsAncestor implements scheme.Scheme from the compact labels alone: anc's
// light sequence must be the ≤-depth(anc) prefix of desc's.
func (n *Numbering) IsAncestor(anc, desc scheme.ID) bool {
	a, ok := anc.(ID)
	if !ok {
		return false
	}
	d, ok := desc.(ID)
	if !ok {
		return false
	}
	if a.Depth >= d.Depth {
		return false
	}
	if !strings.HasPrefix(d.light, a.light) {
		return false
	}
	if len(d.light) > len(a.light) {
		next := binary.BigEndian.Uint32([]byte(d.light[len(a.light) : len(a.light)+4]))
		if next <= uint32(a.Depth) {
			return false
		}
	}
	return true
}

// CompareOrder implements scheme.Scheme through the preorder component.
func (n *Numbering) CompareOrder(a, b scheme.ID) int {
	pa, pb := a.(ID).Pre, b.(ID).Pre
	switch {
	case pa < pb:
		return -1
	case pa > pb:
		return 1
	default:
		return 0
	}
}

// Depth implements scheme.Depther.
func (n *Numbering) Depth(id scheme.ID) (int, bool) {
	aid, ok := id.(ID)
	if !ok {
		return 0, false
	}
	return int(aid.Depth), true
}

func init() {
	scheme.Register(scheme.Registration{
		Name: "ancestry",
		Caps: scheme.Capabilities{Depth: true, OrderedKeys: true},
		Build: func(doc *xmltree.Node) (scheme.Scheme, error) {
			return Build(doc)
		},
	})
}
