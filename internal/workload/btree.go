package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// BTree is a B+tree over byte-string keys whose nodes are pager pages.
// Interior nodes hold separator keys and child page ids; leaves hold
// key/value pairs and are chained left-to-right for range scans. A node
// splits when its serialization no longer fits in one page, so the fan-out
// adapts to key and value sizes. It is the clustered identifier index of
// the stored node tables the E-tables page through (NodeStore); a table is
// bulk-loaded and then only read, so the tree has no delete.
type BTree struct {
	pager PageStore
	root  int32
	size  int
}

// PageStore is what the B+tree needs of a pager. *Pager is the one
// implementation; tests wrap it to inject faults.
type PageStore interface {
	// Alloc creates a new zeroed page and returns its id.
	Alloc() int32
	// Pin faults a page in and holds its frame until Unpin.
	Pin(id int32) (*PinnedPage, error)
	// Write replaces the page contents.
	Write(id int32, data []byte) error
}

// NewBTree creates an empty tree whose nodes live in pager.
func NewBTree(pager PageStore) *BTree {
	t := &BTree{pager: pager}
	t.root = pager.Alloc()
	t.writeNode(t.root, &bnode{leaf: true, next: -1})
	return t
}

// Len returns the number of stored keys.
func (t *BTree) Len() int { return t.size }

// bnode is the in-memory form of one tree page.
type bnode struct {
	leaf bool
	next int32 // right sibling of a leaf, -1 if none

	keys [][]byte
	vals [][]byte // leaves only, len == len(keys)
	kids []int32  // interior only, len == len(keys)+1
}

// Page layout:
//
//	byte 0:     1 = leaf, 0 = interior
//	bytes 1..2: number of keys (big endian)
//	bytes 3..6: next leaf page id (int32, big endian; interior: unused)
//	leaf:       repeat { klen u16, key, vlen u16, val }
//	interior:   child0 i32, repeat { klen u16, key, child i32 }
func (t *BTree) readNode(id int32) (*bnode, error) {
	// The page is pinned for the duration of the decode, and everything is
	// copied out of the frame before Unpin.
	pp, err := t.pager.Pin(id)
	if err != nil {
		return nil, err
	}
	defer pp.Unpin()
	buf := pp.Data()
	n := &bnode{leaf: buf[0] == 1}
	cnt := int(binary.BigEndian.Uint16(buf[1:3]))
	n.next = int32(binary.BigEndian.Uint32(buf[3:7]))
	// Copy the payload region out of the frame once and hand out
	// cap-bounded subslices: one arena allocation per node instead of two
	// tiny copies per entry, which dominated bulk-load profiles. The caps
	// keep a caller's append from clobbering a neighbouring entry.
	arena := append([]byte(nil), buf[7:]...)
	off := 0
	if n.leaf {
		n.keys = make([][]byte, 0, cnt)
		n.vals = make([][]byte, 0, cnt)
		for i := 0; i < cnt; i++ {
			kl := int(binary.BigEndian.Uint16(arena[off : off+2]))
			off += 2
			n.keys = append(n.keys, arena[off:off+kl:off+kl])
			off += kl
			vl := int(binary.BigEndian.Uint16(arena[off : off+2]))
			off += 2
			n.vals = append(n.vals, arena[off:off+vl:off+vl])
			off += vl
		}
		return n, nil
	}
	n.keys = make([][]byte, 0, cnt)
	n.kids = make([]int32, 0, cnt+1)
	n.kids = append(n.kids, int32(binary.BigEndian.Uint32(arena[off:off+4])))
	off += 4
	for i := 0; i < cnt; i++ {
		kl := int(binary.BigEndian.Uint16(arena[off : off+2]))
		off += 2
		n.keys = append(n.keys, arena[off:off+kl:off+kl])
		off += kl
		n.kids = append(n.kids, int32(binary.BigEndian.Uint32(arena[off:off+4])))
		off += 4
	}
	return n, nil
}

func (n *bnode) serializedSize() int {
	size := 7
	if n.leaf {
		for i := range n.keys {
			size += 4 + len(n.keys[i]) + len(n.vals[i])
		}
		return size
	}
	size += 4
	for i := range n.keys {
		size += 6 + len(n.keys[i])
	}
	return size
}

func (t *BTree) writeNode(id int32, n *bnode) {
	buf := make([]byte, 0, n.serializedSize())
	var hdr [7]byte
	if n.leaf {
		hdr[0] = 1
	}
	binary.BigEndian.PutUint16(hdr[1:3], uint16(len(n.keys)))
	binary.BigEndian.PutUint32(hdr[3:7], uint32(n.next))
	buf = append(buf, hdr[:]...)
	var u16 [2]byte
	var u32 [4]byte
	if n.leaf {
		for i := range n.keys {
			binary.BigEndian.PutUint16(u16[:], uint16(len(n.keys[i])))
			buf = append(buf, u16[:]...)
			buf = append(buf, n.keys[i]...)
			binary.BigEndian.PutUint16(u16[:], uint16(len(n.vals[i])))
			buf = append(buf, u16[:]...)
			buf = append(buf, n.vals[i]...)
		}
	} else {
		binary.BigEndian.PutUint32(u32[:], uint32(n.kids[0]))
		buf = append(buf, u32[:]...)
		for i := range n.keys {
			binary.BigEndian.PutUint16(u16[:], uint16(len(n.keys[i])))
			buf = append(buf, u16[:]...)
			buf = append(buf, n.keys[i]...)
			binary.BigEndian.PutUint32(u32[:], uint32(n.kids[i+1]))
			buf = append(buf, u32[:]...)
		}
	}
	if len(buf) > PageSize {
		panic(fmt.Sprintf("workload: btree node overflows page: %d bytes", len(buf)))
	}
	if err := t.pager.Write(id, buf); err != nil {
		panic(err) // ids come from Alloc; out-of-range is a program error
	}
}

// Get returns the value stored under key.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return nil, false, err
		}
		if n.leaf {
			i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
			if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
				return n.vals[i], true, nil
			}
			return nil, false, nil
		}
		id = n.kids[childIndex(n.keys, key)]
	}
}

// childIndex returns the index of the child to follow for key: the first
// child whose separator is > key.
func childIndex(keys [][]byte, key []byte) int {
	return sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], key) > 0 })
}

// Put inserts key/value or replaces the existing value.
func (t *BTree) Put(key, val []byte) error {
	if len(key) > PageSize/8 || len(val) > PageSize/2 {
		return fmt.Errorf("workload: key (%d) or value (%d) too large", len(key), len(val))
	}
	sepKey, rightID, grew, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	if grew {
		t.size++
	}
	if rightID >= 0 {
		// The root split: grow the tree by one level.
		newRoot := t.pager.Alloc()
		t.writeNode(newRoot, &bnode{
			leaf: false,
			next: -1,
			keys: [][]byte{sepKey},
			kids: []int32{t.root, rightID},
		})
		t.root = newRoot
	}
	return nil
}

// insert descends to the leaf, inserts, and propagates splits upward.
// If the node at id split, it returns the separator key and the new right
// sibling's page id; otherwise rightID is -1. grew reports whether a new
// key was added (false for replacement).
func (t *BTree) insert(id int32, key, val []byte) (sep []byte, rightID int32, grew bool, err error) {
	n, err := t.readNode(id)
	if err != nil {
		return nil, -1, false, err
	}
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			n.vals[i] = val
		} else {
			n.keys = append(n.keys, nil)
			n.vals = append(n.vals, nil)
			copy(n.keys[i+1:], n.keys[i:])
			copy(n.vals[i+1:], n.vals[i:])
			n.keys[i] = key
			n.vals[i] = val
			grew = true
		}
		sep, rightID = t.splitIfNeeded(id, n)
		return sep, rightID, grew, nil
	}
	ci := childIndex(n.keys, key)
	childSep, childRight, grew, err := t.insert(n.kids[ci], key, val)
	if err != nil {
		return nil, -1, false, err
	}
	if childRight >= 0 {
		n.keys = append(n.keys, nil)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = childSep
		n.kids = append(n.kids, 0)
		copy(n.kids[ci+2:], n.kids[ci+1:])
		n.kids[ci+1] = childRight
	}
	sep, rightID = t.splitIfNeeded(id, n)
	return sep, rightID, grew, nil
}

// splitIfNeeded writes n back, splitting it into two pages first if its
// serialization exceeds the page size. It returns the separator and right
// page id on split, or (nil, -1).
func (t *BTree) splitIfNeeded(id int32, n *bnode) ([]byte, int32) {
	if n.serializedSize() <= PageSize {
		t.writeNode(id, n)
		return nil, -1
	}
	mid := len(n.keys) / 2
	rightID := t.pager.Alloc()
	if n.leaf {
		right := &bnode{leaf: true, next: n.next,
			keys: append([][]byte(nil), n.keys[mid:]...),
			vals: append([][]byte(nil), n.vals[mid:]...)}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = rightID
		t.writeNode(id, n)
		t.writeNode(rightID, right)
		return right.keys[0], rightID
	}
	// Interior: the middle key moves up.
	sep := n.keys[mid]
	right := &bnode{leaf: false, next: -1,
		keys: append([][]byte(nil), n.keys[mid+1:]...),
		kids: append([]int32(nil), n.kids[mid+1:]...)}
	n.keys = n.keys[:mid]
	n.kids = n.kids[:mid+1]
	t.writeNode(id, n)
	t.writeNode(rightID, right)
	return sep, rightID
}

// Scan visits every key in [lo, hi] in order, calling fn; fn returning
// false stops the scan.
func (t *BTree) Scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	// Descend to the leaf that may contain lo.
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.leaf {
			break
		}
		id = n.kids[childIndex(n.keys, lo)]
	}
	for id >= 0 {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		for i := range n.keys {
			if bytes.Compare(n.keys[i], lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(n.keys[i], hi) > 0 {
				return nil
			}
			if !fn(n.keys[i], n.vals[i]) {
				return nil
			}
		}
		id = n.next
	}
	return nil
}
