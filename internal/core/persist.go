package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/xmltree"
)

// Persistence — the "Save κ and K" step the Fig. 3 algorithm ends with.
// Save writes the global parameters (κ, the table K, the partition limits)
// and every node's identifier in document-walk order; Load reattaches them
// to an identically shaped document (typically re-parsed from the same
// XML), rebuilding all derived state (areas, slot arrays, the nodes'
// stamps) without re-running the partitioning or enumeration.

// saveMagic identifies the serialization format.
var saveMagic = [8]byte{'r', 'u', 'i', 'd', 'v', '0', '0', '1'}

// ErrBadSnapshot reports a malformed or mismatched serialized numbering.
var ErrBadSnapshot = errors.New("core: bad numbering snapshot")

// Save serializes the numbering: header (κ, local limit, flags), the table
// K, and the identifiers of all numbered nodes in WalkFull document order.
func (n *Numbering) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(saveMagic[:]); err != nil {
		return err
	}
	var u64 [8]byte
	writeU64 := func(v uint64) error {
		binary.BigEndian.PutUint64(u64[:], v)
		_, err := bw.Write(u64[:])
		return err
	}
	flags := uint64(0)
	if n.opts.WithAttrs {
		flags |= 1
	}
	rows := n.K()
	for _, v := range []uint64{uint64(n.kappa), uint64(n.localLimit), flags, uint64(len(rows))} {
		if err := writeU64(v); err != nil {
			return err
		}
	}
	for _, row := range rows {
		for _, v := range []uint64{uint64(row.Global), uint64(row.RootLocal), uint64(row.Fanout)} {
			if err := writeU64(v); err != nil {
				return err
			}
		}
	}
	// Identifiers in deterministic document order; count first.
	if err := writeU64(uint64(n.size)); err != nil {
		return err
	}
	var werr error
	n.root.WalkFull(func(x *xmltree.Node) bool {
		id, ok := n.RUID(x)
		if !ok {
			return true
		}
		if _, err := bw.Write(id.Key()); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// Load reads a numbering saved by Save and attaches it to doc, which must
// have exactly the shape of the document the numbering was built on. No
// partitioning or enumeration runs: the areas and slot arrays are
// reconstructed from the identifiers and the table K, and the identifiers
// are burned into doc's nodes (see Build for the one-numbering-per-tree
// rule) only once the whole snapshot has been accepted — a rejected
// snapshot leaves doc as it was. The result has every slot list sorted, so
// it can serve concurrent readers as it is.
func Load(doc *xmltree.Node, r io.Reader) (*Numbering, error) {
	root := doc
	if doc.Kind == xmltree.Document {
		root = doc.DocumentElement()
		if root == nil {
			return nil, errors.New("core: document has no root element")
		}
	}
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if magic != saveMagic {
		return nil, fmt.Errorf("%w: wrong magic", ErrBadSnapshot)
	}
	var u64 [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		return binary.BigEndian.Uint64(u64[:]), nil
	}
	kappa, err := readU64()
	if err != nil {
		return nil, err
	}
	limit, err := readU64()
	if err != nil {
		return nil, err
	}
	flags, err := readU64()
	if err != nil {
		return nil, err
	}
	nRows, err := readU64()
	if err != nil {
		return nil, err
	}
	n := &Numbering{
		doc:        doc,
		root:       root,
		opts:       Options{WithAttrs: flags&1 != 0},
		kappa:      int64(kappa),
		localLimit: int64(limit),
	}
	if n.kappa < 1 || n.localLimit < 1 || nRows == 0 || nRows > 1<<40 {
		return nil, fmt.Errorf("%w: implausible header", ErrBadSnapshot)
	}
	var rows []*area
	for i := uint64(0); i < nRows; i++ {
		g, err := readU64()
		if err != nil {
			return nil, err
		}
		rl, err := readU64()
		if err != nil {
			return nil, err
		}
		fo, err := readU64()
		if err != nil {
			return nil, err
		}
		a := &area{global: int64(g), rootLocal: int64(rl), fanout: int64(fo)}
		if a.global != 1 {
			a.parentGlobal = (a.global-2)/n.kappa + 1
		}
		if a.fanout < 1 {
			return nil, fmt.Errorf("%w: area %d fan-out %d", ErrBadSnapshot, g, fo)
		}
		if len(rows) > 0 && a.global <= rows[len(rows)-1].global {
			return nil, fmt.Errorf("%w: area %d out of order", ErrBadSnapshot, g)
		}
		rows = append(rows, a)
	}
	n.k = newAreaIndex(rows)
	count, err := readU64()
	if err != nil {
		return nil, err
	}
	// Reattach identifiers in the same walk order Save used.
	var nodesInOrder []*xmltree.Node
	root.WalkFull(func(x *xmltree.Node) bool {
		if x.Kind == xmltree.Attribute && !n.opts.WithAttrs {
			return true
		}
		nodesInOrder = append(nodesInOrder, x)
		return true
	})
	if uint64(len(nodesInOrder)) != count {
		return nil, fmt.Errorf("%w: snapshot has %d identifiers, document has %d nodes",
			ErrBadSnapshot, count, len(nodesInOrder))
	}
	var key [17]byte
	for _, x := range nodesInOrder {
		if _, err := io.ReadFull(br, key[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		id, ok := DecodeKey(key[:])
		if !ok {
			return nil, fmt.Errorf("%w: undecodable identifier", ErrBadSnapshot)
		}
		if err := n.attach(x, id); err != nil {
			return nil, err
		}
	}
	// Identifiers arrive in document order; a row is kept in slot order, its
	// root first and no slot taken twice.
	for _, a := range rows {
		if a.root == nil {
			return nil, fmt.Errorf("%w: area %d has no root node", ErrBadSnapshot, a.global)
		}
		sort.Sort(bySlot{a})
		for i := 1; i < len(a.slots); i++ {
			if a.slots[i] == a.slots[i-1] {
				return nil, fmt.Errorf("%w: two nodes at slot %d of area %d", ErrBadSnapshot, a.slots[i], a.global)
			}
		}
	}
	n.commitStamps()
	n.AssertK("Load")
	return n, nil
}

// attach places one (node, id) pair in the K slots the identifier names.
func (n *Numbering) attach(x *xmltree.Node, id ID) error {
	a, ok := n.krow(id.Global)
	if !ok {
		return fmt.Errorf("%w: identifier %v references unknown area", ErrBadSnapshot, id)
	}
	n.size++
	var lower int64
	if id.Root {
		if a.root != nil || a.rootLocal != id.Local {
			return fmt.Errorf("%w: duplicate or misplaced area root %v", ErrBadSnapshot, id)
		}
		a.root = x
		a.place(1, x, 0)
		if id.Global == 1 {
			return nil
		}
		// An area root also occupies its boundary slot in the upper area.
		if a, ok = n.krow(a.parentGlobal); !ok {
			return fmt.Errorf("%w: area %d has no parent area", ErrBadSnapshot, id.Global)
		}
		lower = id.Global
	}
	if id.Local <= 1 {
		return fmt.Errorf("%w: identifier %v claims a root slot", ErrBadSnapshot, id)
	}
	a.place(id.Local, x, lower)
	return nil
}

// place appends one occupied slot to the row.
func (a *area) place(slot int64, x *xmltree.Node, lower int64) {
	a.slots = append(a.slots, slot)
	a.nodes.Append(x)
	a.lower = append(a.lower, lower)
}

// bySlot sorts a row's parallel arrays by local index.
type bySlot struct{ *area }

func (r bySlot) Len() int           { return len(r.slots) }
func (r bySlot) Less(i, j int) bool { return r.slots[i] < r.slots[j] }
func (r bySlot) Swap(i, j int) {
	r.slots[i], r.slots[j] = r.slots[j], r.slots[i]
	xi, xj := r.nodes.At(i), r.nodes.At(j)
	r.nodes.Set(i, xj)
	r.nodes.Set(j, xi)
	r.lower[i], r.lower[j] = r.lower[j], r.lower[i]
}
