package workload

import (
	"encoding/binary"
	"fmt"

	"repro/internal/xmltree"
)

// Record is one stored node row: the relational projection the paper uses
// (identifier columns plus element name and value).
type Record struct {
	Name  string // element/attribute name
	Kind  uint8  // xmltree.Kind
	Value string // text value (for text and attribute nodes)
}

// encodeRecord serializes a record.
func encodeRecord(r Record) []byte {
	buf := make([]byte, 0, 5+len(r.Name)+len(r.Value))
	var u16 [2]byte
	buf = append(buf, r.Kind)
	binary.BigEndian.PutUint16(u16[:], uint16(len(r.Name)))
	buf = append(buf, u16[:]...)
	buf = append(buf, r.Name...)
	binary.BigEndian.PutUint16(u16[:], uint16(len(r.Value)))
	buf = append(buf, u16[:]...)
	buf = append(buf, r.Value...)
	return buf
}

// decodeRecord parses a serialized record.
func decodeRecord(b []byte) (Record, error) {
	if len(b) < 5 {
		return Record{}, fmt.Errorf("workload: record too short (%d bytes)", len(b))
	}
	r := Record{Kind: b[0]}
	off := 1
	nl := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	if off+nl+2 > len(b) {
		return Record{}, fmt.Errorf("workload: corrupt record name")
	}
	r.Name = string(b[off : off+nl])
	off += nl
	vl := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	if off+vl > len(b) {
		return Record{}, fmt.Errorf("workload: corrupt record value")
	}
	r.Value = string(b[off : off+vl])
	return r, nil
}

// recordOf projects a node to its stored row.
func recordOf(n *xmltree.Node) Record {
	r := Record{Name: n.Name, Kind: uint8(n.Kind)}
	if n.Kind == xmltree.Text || n.Kind == xmltree.Attribute ||
		n.Kind == xmltree.Comment || n.Kind == xmltree.ProcInst {
		r.Value = n.Data
	}
	return r
}

// NodeStore is the stored node table the E-tables' baselines page through:
// records keyed by the numbering scheme's identifier keys, clustered in a
// B+tree behind a pager of its own. With a ruid numbering, key order is
// (global index, local index) — exactly the sort order the paper prescribes
// for RDBMS storage. No served document has one: the engine answers from
// its resident tree, and pages only its postings.
type NodeStore struct {
	pager *Pager
	tree  *BTree
}

// NewNodeStore creates an empty node table with the given buffer-pool size
// (pages).
func NewNodeStore(poolPages int) *NodeStore {
	p := NewPager(poolPages)
	return &NodeStore{pager: p, tree: NewBTree(p)}
}

// Load bulk-inserts, in document order, every node under root for which key
// returns a key: the identifier key of each numbered node.
func (st *NodeStore) Load(root *xmltree.Node, key func(*xmltree.Node) ([]byte, bool), withAttrs bool) error {
	var err error
	root.WalkFull(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Attribute && !withAttrs {
			return true
		}
		k, ok := key(n)
		if !ok {
			return true
		}
		if e := st.Put(k, n); e != nil {
			err = e
			return false
		}
		return true
	})
	return err
}

// Put inserts or replaces the row of n under key.
func (st *NodeStore) Put(key []byte, n *xmltree.Node) error {
	return st.tree.Put(key, encodeRecord(recordOf(n)))
}

// Get fetches the row stored under key.
func (st *NodeStore) Get(key []byte) (Record, bool, error) {
	v, ok, err := st.tree.Get(key)
	if err != nil || !ok {
		return Record{}, false, err
	}
	r, err := decodeRecord(v)
	if err != nil {
		return Record{}, false, err
	}
	return r, true, nil
}

// ScanRange visits the rows whose keys fall in [lo, hi] in key order.
func (st *NodeStore) ScanRange(lo, hi []byte, fn func(key []byte, r Record) bool) error {
	var derr error
	err := st.tree.Scan(lo, hi, func(k, v []byte) bool {
		r, e := decodeRecord(v)
		if e != nil {
			derr = e
			return false
		}
		return fn(k, r)
	})
	if err != nil {
		return err
	}
	return derr
}

// Len returns the number of stored rows.
func (st *NodeStore) Len() int { return st.tree.Len() }

// Stats returns the accumulated I/O counters.
func (st *NodeStore) Stats() IOStats { return st.pager.Stats() }

// ResetStats zeroes the I/O counters.
func (st *NodeStore) ResetStats() { st.pager.ResetStats() }

// DropCache empties the buffer pool for cold measurements.
func (st *NodeStore) DropCache() { st.pager.DropCache() }

// Pages returns the number of allocated pages.
func (st *NodeStore) Pages() int { return st.pager.Pages() }

// Pager exposes the underlying pager.
func (st *NodeStore) Pager() *Pager { return st.pager }
