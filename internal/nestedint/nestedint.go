package nestedint

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// ID is a nested-interval identifier: the canonical continued-fraction
// rational plus its packed sibling path. The path is fully determined by
// the rational (DecodePath); it is carried alongside because it is also the
// identifier's index key and the cheap form for order comparison.
type ID struct {
	Num, Den int64
	// packed holds the sibling path as big-endian 4-byte ranks. Packing as
	// a string keeps ID comparable and makes Key() allocation-free to
	// derive. Lexicographic order on packed paths is document order, and a
	// proper prefix is exactly a proper ancestor.
	packed string
}

// String renders the label the way Tropashko writes it.
func (id ID) String() string { return fmt.Sprintf("%d/%d", id.Num, id.Den) }

// Key implements scheme.ID: big-endian 4-byte sibling ranks. bytes.Compare
// on keys is document order (a prefix — an ancestor — sorts first).
func (id ID) Key() []byte { return []byte(id.packed) }

// depth returns the node's depth below the document root (root = 0).
func (id ID) depth() int { return len(id.packed)/4 - 1 }

func packPath(path []uint32) string {
	var b strings.Builder
	b.Grow(4 * len(path))
	var buf [4]byte
	for _, c := range path {
		binary.BigEndian.PutUint32(buf[:], c)
		b.Write(buf[:])
	}
	return b.String()
}

func unpackPath(packed string) []uint32 {
	path := make([]uint32, len(packed)/4)
	for i := range path {
		path[i] = binary.BigEndian.Uint32([]byte(packed[4*i : 4*i+4]))
	}
	return path
}

// idFor builds the ID of a sibling path, or ErrOverflow.
func idFor(path []uint32) (ID, error) {
	num, den, err := EncodePath(path)
	if err != nil {
		return ID{}, err
	}
	return ID{Num: num, Den: den, packed: packPath(path)}, nil
}

// Numbering is a nested-interval numbering of one tree snapshot. It
// implements scheme.Scheme, scheme.AxisScheme, scheme.Updatable,
// scheme.Depther and scheme.LabelSizer.
type Numbering struct {
	doc  *xmltree.Node
	root *xmltree.Node

	ids     map[*xmltree.Node]ID
	byKey   map[string]*xmltree.Node
	ordered []*xmltree.Node // all numbered nodes in document order
	pos     map[string]int  // packed path -> index in ordered
}

// Build numbers doc (a Document node or an element treated as root) with
// continued-fraction nested intervals. Attributes are not numbered. Build
// fails with ErrOverflow when some label does not fit in int64.
func Build(doc *xmltree.Node) (*Numbering, error) {
	root := doc
	if doc.Kind == xmltree.Document {
		root = doc.DocumentElement()
		if root == nil {
			return nil, fmt.Errorf("nestedint: document has no root element")
		}
	}
	n := &Numbering{doc: doc, root: root}
	if err := n.renumberAll(); err != nil {
		return nil, err
	}
	return n, nil
}

// renumberAll assigns dense canonical labels to the whole snapshot into
// fresh tables. On error the receiver is left unchanged.
func (n *Numbering) renumberAll() error {
	ids := make(map[*xmltree.Node]ID)
	byKey := make(map[string]*xmltree.Node)
	var ordered []*xmltree.Node
	pos := make(map[string]int)

	var walk func(d *xmltree.Node, path []uint32) error
	walk = func(d *xmltree.Node, path []uint32) error {
		id, err := idFor(path)
		if err != nil {
			return err
		}
		ids[d] = id
		byKey[id.packed] = d
		pos[id.packed] = len(ordered)
		ordered = append(ordered, d)
		for i := 0; i < d.Children.Len(); i++ {
			c := d.Children.At(i)
			if err := walk(c, append(path, uint32(i+1))); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(n.root, []uint32{1}); err != nil {
		return err
	}
	n.ids, n.byKey, n.ordered, n.pos = ids, byKey, ordered, pos
	return nil
}

// Name implements scheme.Scheme.
func (n *Numbering) Name() string { return "nestedint" }

// Size returns the number of numbered nodes.
func (n *Numbering) Size() int { return len(n.ids) }

// LabelBytes implements scheme.LabelSizer: two int64 words per node (the
// rational); the path is derivable and not counted as resident label state.
func (n *Numbering) LabelBytes() int { return 16 * len(n.ids) }

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
	nid, ok := id.(ID)
	if !ok {
		return nil, false
	}
	node, ok := n.byKey[nid.packed]
	return node, ok
}

// Parent implements scheme.Scheme by identifier arithmetic alone: the path
// is recovered from the rational with Euclid's algorithm, truncated, and
// re-encoded. No tree or table access is involved.
func (n *Numbering) Parent(id scheme.ID) (scheme.ID, bool) {
	nid, ok := id.(ID)
	if !ok {
		return nil, false
	}
	path, err := DecodePath(nid.Num, nid.Den)
	if err != nil || len(path) <= 1 {
		return nil, false
	}
	pid, err := idFor(path[:len(path)-1])
	if err != nil {
		return nil, false
	}
	return pid, true
}

// IsAncestor implements scheme.Scheme: anc is a proper ancestor of desc iff
// anc's path is a proper prefix of desc's.
func (n *Numbering) IsAncestor(anc, desc scheme.ID) bool {
	a, ok := anc.(ID)
	if !ok {
		return false
	}
	d, ok := desc.(ID)
	if !ok {
		return false
	}
	return len(a.packed) < len(d.packed) && strings.HasPrefix(d.packed, a.packed)
}

// CompareOrder implements scheme.Scheme: lexicographic comparison of packed
// paths is document order, with ancestors before descendants.
func (n *Numbering) CompareOrder(a, b scheme.ID) int {
	return strings.Compare(a.(ID).packed, b.(ID).packed)
}

// Depth implements scheme.Depther (document root element at depth 0).
func (n *Numbering) Depth(id scheme.ID) (int, bool) {
	nid, ok := id.(ID)
	if !ok || len(nid.packed) == 0 {
		return 0, false
	}
	return nid.depth(), true
}

// Ancestors implements scheme.AxisScheme, nearest first.
func (n *Numbering) Ancestors(id scheme.ID) []scheme.ID {
	nid, ok := id.(ID)
	if !ok {
		return nil
	}
	var out []scheme.ID
	for k := len(nid.packed)/4 - 1; k >= 1; k-- {
		prefix := nid.packed[:4*k]
		node, ok := n.byKey[prefix]
		if !ok {
			return out
		}
		out = append(out, n.ids[node])
	}
	return out
}

// Children implements scheme.AxisScheme by probing successive sibling
// ranks; labels are dense, so the first miss ends the axis.
func (n *Numbering) Children(id scheme.ID) []scheme.ID {
	nid, ok := id.(ID)
	if !ok {
		return nil
	}
	var out []scheme.ID
	path := append(unpackPath(nid.packed), 0)
	for r := uint32(1); ; r++ {
		path[len(path)-1] = r
		node, ok := n.byKey[packPath(path)]
		if !ok {
			return out
		}
		out = append(out, n.ids[node])
	}
}

// Descendants implements scheme.AxisScheme: descendants are the contiguous
// document-order run of nodes whose packed path extends id's.
func (n *Numbering) Descendants(id scheme.ID) []scheme.ID {
	nid, ok := id.(ID)
	if !ok {
		return nil
	}
	p, ok := n.pos[nid.packed]
	if !ok {
		return nil
	}
	var out []scheme.ID
	for _, d := range n.ordered[p+1:] {
		did := n.ids[d]
		if !strings.HasPrefix(did.packed, nid.packed) {
			break
		}
		out = append(out, did)
	}
	return out
}

// subtreeEnd returns the ordered index one past the last descendant of the
// node at ordered index p.
func (n *Numbering) subtreeEnd(p int) int {
	prefix := n.ids[n.ordered[p]].packed
	e := p + 1
	for e < len(n.ordered) && strings.HasPrefix(n.ids[n.ordered[e]].packed, prefix) {
		e++
	}
	return e
}

// FollowingSiblings implements scheme.AxisScheme.
func (n *Numbering) FollowingSiblings(id scheme.ID) []scheme.ID {
	nid, ok := id.(ID)
	if !ok {
		return nil
	}
	path := unpackPath(nid.packed)
	if len(path) <= 1 {
		return nil // the root has no siblings
	}
	var out []scheme.ID
	for r := path[len(path)-1] + 1; ; r++ {
		path[len(path)-1] = r
		node, ok := n.byKey[packPath(path)]
		if !ok {
			return out
		}
		out = append(out, n.ids[node])
	}
}

// PrecedingSiblings implements scheme.AxisScheme, nearest first.
func (n *Numbering) PrecedingSiblings(id scheme.ID) []scheme.ID {
	nid, ok := id.(ID)
	if !ok {
		return nil
	}
	path := unpackPath(nid.packed)
	if len(path) <= 1 {
		return nil
	}
	var out []scheme.ID
	for r := path[len(path)-1] - 1; r >= 1; r-- {
		path[len(path)-1] = r
		node, ok := n.byKey[packPath(path)]
		if !ok {
			return out
		}
		out = append(out, n.ids[node])
	}
	return out
}

// Following implements scheme.AxisScheme: everything after id's subtree in
// document order (ancestors precede id, so nothing needs filtering).
func (n *Numbering) Following(id scheme.ID) []scheme.ID {
	nid, ok := id.(ID)
	if !ok {
		return nil
	}
	p, ok := n.pos[nid.packed]
	if !ok {
		return nil
	}
	rest := n.ordered[n.subtreeEnd(p):]
	out := make([]scheme.ID, 0, len(rest))
	for _, d := range rest {
		out = append(out, n.ids[d])
	}
	return out
}

// Preceding implements scheme.AxisScheme: everything before id in document
// order except its ancestors.
func (n *Numbering) Preceding(id scheme.ID) []scheme.ID {
	nid, ok := id.(ID)
	if !ok {
		return nil
	}
	p, ok := n.pos[nid.packed]
	if !ok {
		return nil
	}
	var out []scheme.ID
	for _, d := range n.ordered[:p] {
		did := n.ids[d]
		if strings.HasPrefix(nid.packed, did.packed) {
			continue // ancestor
		}
		out = append(out, did)
	}
	return out
}

// InsertChild implements scheme.Updatable. Labels are kept dense and
// canonical, so inserting at position pos relabels the following siblings
// of the new node together with their whole subtrees — the nested-interval
// update cost the bake-off measures. If any relabeled node's canonical
// label would overflow int64, the tree mutation is rolled back and
// ErrOverflow returned: the document is left exactly as before the call
// (the relabel-on-overflow policy; see the package comment).
func (n *Numbering) InsertChild(parent *xmltree.Node, pos int, newChild *xmltree.Node) (scheme.UpdateStats, error) {
	if _, ok := n.ids[parent]; !ok {
		return scheme.UpdateStats{}, fmt.Errorf("nestedint: insert under unnumbered node %s", parent.Path())
	}
	if pos < 0 || pos > parent.Children.Len() {
		return scheme.UpdateStats{}, fmt.Errorf("nestedint: insert position %d out of range", pos)
	}
	parent.InsertChildAt(pos, newChild)
	old := n.ids
	if err := n.renumberAll(); err != nil {
		parent.RemoveChild(pos)
		return scheme.UpdateStats{}, err
	}
	return diffStats(old, n.ids), nil
}

// DeleteChild implements scheme.Updatable (cascading, per §3.2 of the
// paper): the subtree's labels vanish and the following siblings' subtrees
// are relabeled down into the freed ranks.
func (n *Numbering) DeleteChild(parent *xmltree.Node, pos int) (scheme.UpdateStats, error) {
	if _, ok := n.ids[parent]; !ok {
		return scheme.UpdateStats{}, fmt.Errorf("nestedint: delete under unnumbered node %s", parent.Path())
	}
	if pos < 0 || pos >= parent.Children.Len() {
		return scheme.UpdateStats{}, fmt.Errorf("nestedint: delete position %d out of range", pos)
	}
	removed := parent.RemoveChild(pos)
	old := n.ids
	if err := n.renumberAll(); err != nil {
		// Shrinking ranks can only shrink labels, so this is unreachable;
		// restore the tree all the same rather than corrupt it.
		parent.InsertChildAt(pos, removed)
		return scheme.UpdateStats{}, err
	}
	return diffStats(old, n.ids), nil
}

// diffStats counts pre-existing nodes whose label changed.
func diffStats(old, fresh map[*xmltree.Node]ID) scheme.UpdateStats {
	var st scheme.UpdateStats
	for node, oldID := range old {
		if newID, ok := fresh[node]; ok && newID != oldID {
			st.Relabeled++
		}
	}
	return st
}

func init() {
	scheme.Register(scheme.Registration{
		Name: "nestedint",
		Caps: scheme.Capabilities{Axes: true, Update: true, ComputedParent: true, Depth: true, OrderedKeys: true},
		Build: func(doc *xmltree.Node) (scheme.Scheme, error) {
			return Build(doc)
		},
	})
}
