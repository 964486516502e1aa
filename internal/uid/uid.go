// Package uid implements the original UID numbering scheme of Lee, Yoo,
// Yoon and Berra (reference [7] of the paper), the baseline the paper's
// ruid improves on.
//
// The scheme enumerates an XML tree as if it were a complete k-ary tree,
// where k is the maximal fan-out over all nodes: the root receives 1 and
// the j-th child (0-based) of the node with identifier i receives
//
//	(i−1)·k + 2 + j
//
// so that the parent of any identifier i is recoverable by pure arithmetic
// (formula (1) of the paper):
//
//	parent(i) = ⌊(i−2)/k⌋ + 1
//
// Real nodes occupy a sparse subset of the identifier space; the remaining
// slots belong to virtual nodes. Identifier values grow as k^depth, which
// overflows machine integers even for small documents, so this package
// represents identifiers with math/big (the paper's "additional
// purpose-specific libraries"); Build64 provides the int64 fast path with
// explicit overflow detection so the overflow incidence itself can be
// measured (experiment E3).
package uid

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

var (
	// ErrOverflow reports that an identifier does not fit in an int64. It is
	// the sentinel every scheme shares.
	ErrOverflow = scheme.ErrOverflow
	// ErrFanout reports that a node's fan-out exceeds the enumeration k.
	ErrFanout = errors.New("uid: node fan-out exceeds k")
)

// ID is an original UID identifier: a positive integer of unbounded size.
// It implements scheme.ID.
type ID struct {
	v *big.Int
}

// NewID wraps an int64 value as an ID, for tests and examples.
func NewID(v int64) ID { return ID{big.NewInt(v)} }

// String renders the identifier in decimal, the way the paper writes it.
func (id ID) String() string {
	if id.v == nil {
		return "<nil>"
	}
	return id.v.String()
}

// Key returns a byte string whose bytes.Compare order equals numeric order:
// a 4-byte big-endian magnitude length followed by the magnitude bytes.
func (id ID) Key() []byte {
	mag := id.v.Bytes()
	key := make([]byte, 4+len(mag))
	n := len(mag)
	key[0] = byte(n >> 24)
	key[1] = byte(n >> 16)
	key[2] = byte(n >> 8)
	key[3] = byte(n)
	copy(key[4:], mag)
	return key
}

// Int returns the identifier as a big.Int (shared; do not modify).
func (id ID) Int() *big.Int { return id.v }

// Cmp compares two identifiers numerically.
func (id ID) Cmp(other ID) int { return id.v.Cmp(other.v) }

// Options configure Build.
type Options struct {
	// K is the fan-out of the enumerating tree. Zero means "use the
	// maximal fan-out of the document", as the paper prescribes.
	K int64
	// WithAttrs enumerates attribute nodes as leading children of their
	// element, so that every component of the document gets an identifier.
	WithAttrs bool
}

// Numbering is an original-UID numbering of one document snapshot.
// It implements scheme.AxisScheme and scheme.Updatable.
type Numbering struct {
	doc  *xmltree.Node
	root *xmltree.Node
	k    *big.Int
	k64  int64
	opts Options

	ids   map[*xmltree.Node]*big.Int
	nodes map[string]*xmltree.Node // ID.Key() -> node
	maxID *big.Int

	sorted      []*big.Int // existing identifiers in numeric order
	sortedDirty bool
}

// Build enumerates doc (a Document node or an element treated as root) and
// returns its numbering. An error is returned only for an empty document.
func Build(doc *xmltree.Node, opts Options) (*Numbering, error) {
	root := doc
	if doc.Kind == xmltree.Document {
		root = doc.DocumentElement()
		if root == nil {
			return nil, errors.New("uid: document has no root element")
		}
	}
	k := opts.K
	if k == 0 {
		k = int64(maxFanout(root, opts.WithAttrs))
		if k == 0 {
			k = 1 // single-node document
		}
	}
	n := &Numbering{
		doc:  doc,
		root: root,
		k:    big.NewInt(k),
		k64:  k,
		opts: opts,
	}
	if err := n.renumberAll(); err != nil {
		return nil, err
	}
	return n, nil
}

func maxFanout(root *xmltree.Node, withAttrs bool) int {
	max := 0
	root.Walk(func(d *xmltree.Node) bool {
		if f := d.StructuralFanout(withAttrs); f > max {
			max = f
		}
		return true
	})
	return max
}

// renumberAll assigns fresh identifiers to the entire snapshot.
func (n *Numbering) renumberAll() error {
	n.ids = make(map[*xmltree.Node]*big.Int)
	n.nodes = make(map[string]*xmltree.Node)
	n.maxID = big.NewInt(0)
	n.sortedDirty = true
	return n.assign(n.root, big.NewInt(1))
}

// assign gives node the identifier id and recurses into its children.
func (n *Numbering) assign(node *xmltree.Node, id *big.Int) error {
	n.setID(node, id)
	kids := node.StructuralChildren(nil, n.opts.WithAttrs)
	if int64(len(kids)) > n.k64 {
		return fmt.Errorf("%w: node %s has %d children, k = %d",
			ErrFanout, node.Path(), len(kids), n.k64)
	}
	for j, c := range kids {
		if err := n.assign(c, n.childID(id, j)); err != nil {
			return err
		}
	}
	return nil
}

func (n *Numbering) setID(node *xmltree.Node, id *big.Int) {
	// During relabeling the node's old identifier may already have been
	// claimed by another node; only remove the reverse entry if it still
	// points here.
	if old, ok := n.ids[node]; ok && n.nodes[string(ID{old}.Key())] == node {
		delete(n.nodes, string(ID{old}.Key()))
	}
	n.ids[node] = id
	n.nodes[string(ID{id}.Key())] = node
	if id.Cmp(n.maxID) > 0 {
		n.maxID = new(big.Int).Set(id)
	}
	n.sortedDirty = true
}

// childID computes the identifier of the j-th (0-based) child of parent:
// (parent−1)·k + 2 + j.
func (n *Numbering) childID(parent *big.Int, j int) *big.Int {
	id := new(big.Int).Sub(parent, bigOne)
	id.Mul(id, n.k)
	id.Add(id, big.NewInt(int64(2+j)))
	return id
}

var (
	bigOne = big.NewInt(1)
	bigTwo = big.NewInt(2)
)

// ParentID applies formula (1) of the paper to an identifier: the parent of
// i is ⌊(i−2)/k⌋ + 1. It is pure arithmetic with no tree access.
func ParentID(i, k *big.Int) *big.Int {
	p := new(big.Int).Sub(i, bigTwo)
	p.Div(p, k)
	p.Add(p, bigOne)
	return p
}

// Parent64 applies formula (1) in int64 arithmetic; i must be ≥ 2.
func Parent64(i, k int64) int64 { return (i-2)/k + 1 }

// K returns the enumeration fan-out.
func (n *Numbering) K() int64 { return n.k64 }

// MaxID returns the largest identifier in use (a copy).
func (n *Numbering) MaxID() *big.Int { return new(big.Int).Set(n.maxID) }

// Bits returns the bit length of the largest identifier in use — the
// identifier-magnitude metric of experiment E3.
func (n *Numbering) Bits() int { return n.maxID.BitLen() }

// Size returns the number of numbered (real) nodes.
func (n *Numbering) Size() int { return len(n.ids) }

// Root returns the numbered root element.
func (n *Numbering) Root() *xmltree.Node { return n.root }

// Name implements scheme.Scheme.
func (n *Numbering) Name() string { return "uid" }

// IDOf implements scheme.Scheme.
func (n *Numbering) IDOf(node *xmltree.Node) (scheme.ID, bool) {
	v, ok := n.ids[node]
	if !ok {
		return nil, false
	}
	return ID{v}, true
}

// IDValue returns the raw identifier of a node, and false if unnumbered.
func (n *Numbering) IDValue(node *xmltree.Node) (*big.Int, bool) {
	v, ok := n.ids[node]
	return v, ok
}

// NodeOf implements scheme.Scheme: it resolves an identifier to a real
// node, returning false for virtual slots.
func (n *Numbering) NodeOf(id scheme.ID) (*xmltree.Node, bool) {
	node, ok := n.nodes[string(id.Key())]
	return node, ok
}

// Parent implements scheme.Scheme using formula (1). The root (identifier
// 1) has no parent.
func (n *Numbering) Parent(id scheme.ID) (scheme.ID, bool) {
	v := id.(ID).v
	if v.Cmp(bigOne) <= 0 {
		return nil, false
	}
	return ID{ParentID(v, n.k)}, true
}

// IsAncestor implements scheme.Scheme by iterating formula (1): identifiers
// strictly decrease toward the root, so anc is an ancestor of desc exactly
// when repeated parent computation from desc reaches anc's value.
func (n *Numbering) IsAncestor(anc, desc scheme.ID) bool {
	a := anc.(ID).v
	d := desc.(ID).v
	if d.Cmp(a) <= 0 {
		return false
	}
	cur := new(big.Int).Set(d)
	for cur.Cmp(a) > 0 {
		cur.Sub(cur, bigTwo)
		cur.Div(cur, n.k)
		cur.Add(cur, bigOne)
	}
	return cur.Cmp(a) == 0
}

// CompareOrder implements scheme.Scheme with the routine of Fig. 10 of the
// paper: compute both ancestor chains, find the lowest common ancestor, and
// compare the identifiers of its two children on the paths (children of one
// parent carry consecutive identifiers, so numeric order is sibling order).
func (n *Numbering) CompareOrder(a, b scheme.ID) int {
	av := a.(ID).v
	bv := b.(ID).v
	c := av.Cmp(bv)
	if c == 0 {
		return 0
	}
	if n.IsAncestor(a, b) {
		return -1
	}
	if n.IsAncestor(b, a) {
		return 1
	}
	ca, cb := childrenUnderLCA(av, bv, n.k)
	return ca.Cmp(cb)
}

// childrenUnderLCA returns the children of the lowest common ancestor of a
// and b that lie on the paths to a and b respectively. Neither may be an
// ancestor of the other.
func childrenUnderLCA(a, b, k *big.Int) (ca, cb *big.Int) {
	chainA := ancestorChain(a, k) // a, parent(a), ..., 1
	chainB := ancestorChain(b, k)
	// Walk from the root ends while equal.
	i, j := len(chainA)-1, len(chainB)-1
	for i > 0 && j > 0 && chainA[i-1].Cmp(chainB[j-1]) == 0 {
		i--
		j--
	}
	return chainA[i-1], chainB[j-1]
}

func ancestorChain(v, k *big.Int) []*big.Int {
	chain := []*big.Int{new(big.Int).Set(v)}
	cur := new(big.Int).Set(v)
	for cur.Cmp(bigOne) > 0 {
		cur = ParentID(cur, k)
		chain = append(chain, new(big.Int).Set(cur))
	}
	return chain
}

// ensureSorted rebuilds the numeric index of existing identifiers used for
// range scans. This models the clustered identifier index the paper assumes
// when "ascertaining the identifiers of data items prior to loading".
func (n *Numbering) ensureSorted() {
	if !n.sortedDirty {
		return
	}
	n.sorted = n.sorted[:0]
	for _, v := range n.ids {
		n.sorted = append(n.sorted, v)
	}
	sort.Slice(n.sorted, func(i, j int) bool { return n.sorted[i].Cmp(n.sorted[j]) < 0 })
	n.sortedDirty = false
}

// existingInRange returns the identifiers of real nodes in [lo, hi],
// in numeric order.
func (n *Numbering) existingInRange(lo, hi *big.Int) []*big.Int {
	n.ensureSorted()
	start := sort.Search(len(n.sorted), func(i int) bool { return n.sorted[i].Cmp(lo) >= 0 })
	var out []*big.Int
	for i := start; i < len(n.sorted) && n.sorted[i].Cmp(hi) <= 0; i++ {
		out = append(out, n.sorted[i])
	}
	return out
}
