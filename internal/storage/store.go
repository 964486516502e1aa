package storage

import (
	"encoding/binary"
	"fmt"
	"sync"

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
		return Record{}, fmt.Errorf("storage: record too short (%d bytes)", len(b))
	}
	r := Record{Kind: b[0]}
	off := 1
	nl := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	if off+nl+2 > len(b) {
		return Record{}, fmt.Errorf("storage: corrupt record name")
	}
	r.Name = string(b[off : off+nl])
	off += nl
	vl := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	if off+vl > len(b) {
		return Record{}, fmt.Errorf("storage: corrupt record value")
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

// NodeStore is the node table of one document: records keyed by the
// numbering scheme's identifier keys, clustered in a B+tree. With a ruid
// numbering, key order is (global index, local index) — exactly the sort
// order the paper prescribes for RDBMS storage. Reads may run concurrently
// (the paged query path fetches payloads from parallel workers); writes
// take the table lock exclusively.
type NodeStore struct {
	mu    sync.RWMutex
	pager *Pager
	tree  *BTree
}

// NewNodeStore creates an empty node table with the given buffer-pool size
// (pages).
func NewNodeStore(poolPages int) *NodeStore {
	return NewNodeStoreOn(NewPager(poolPages))
}

// NewNodeStoreOn creates an empty node table whose B+tree pages live in an
// existing pager — the DocStore layout, where postings blobs and the node
// table share one buffer pool.
func NewNodeStoreOn(p *Pager) *NodeStore {
	return &NodeStore{pager: p, tree: NewBTree(p)}
}

// Load bulk-inserts, in document order, every node under root for which key
// returns a key: the identifier key of each numbered node.
func (st *NodeStore) Load(root *xmltree.Node, key func(*xmltree.Node) ([]byte, bool), withAttrs bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var err error
	root.WalkFull(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Attribute && !withAttrs {
			return true
		}
		k, ok := key(n)
		if !ok {
			return true
		}
		if e := st.tree.Put(k, encodeRecord(recordOf(n))); e != nil {
			err = e
			return false
		}
		return true
	})
	return err
}

// Put inserts or replaces the row of n under key.
func (st *NodeStore) Put(key []byte, n *xmltree.Node) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tree.Put(key, encodeRecord(recordOf(n)))
}

// Get fetches the row stored under key.
func (st *NodeStore) Get(key []byte) (Record, bool, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
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

// Delete removes the row stored under key.
func (st *NodeStore) Delete(key []byte) (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tree.Delete(key)
}

// ScanRange visits the rows whose keys fall in [lo, hi] in key order.
func (st *NodeStore) ScanRange(lo, hi []byte, fn func(key []byte, r Record) bool) error {
	st.mu.RLock()
	defer st.mu.RUnlock()
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
func (st *NodeStore) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.tree.Len()
}

// Stats returns the accumulated I/O counters.
func (st *NodeStore) Stats() IOStats { return st.pager.Stats() }

// ResetStats zeroes the I/O counters.
func (st *NodeStore) ResetStats() { st.pager.ResetStats() }

// DropCache empties the buffer pool for cold measurements.
func (st *NodeStore) DropCache() { st.pager.DropCache() }

// Pages returns the number of allocated pages.
func (st *NodeStore) Pages() int { return st.pager.Pages() }

// Pager exposes the underlying pager (shared in the DocStore layout).
func (st *NodeStore) Pager() *Pager { return st.pager }
