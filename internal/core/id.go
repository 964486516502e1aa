// Package core implements the paper's primary contribution: the multilevel
// recursive UID (ruid) numbering scheme for XML data.
//
// A 2-level ruid (Definition 3) manages identifiers at two levels: the tree
// is partitioned into UID-local areas (Definition 2) whose roots form the
// frame (Definition 1); the frame is enumerated with a κ-ary original UID
// (the global indices) and each area with its own kᵢ-ary original UID (the
// local indices). A node's full identifier is the triple
//
//	(global index, local index, root indicator)
//
// where a non-root node carries the index of its area and its index inside
// the area, while an area root carries the index of its own area and its
// index as a leaf of the *upper* area. The root of the document is
// (1, 1, true).
//
// Together with the frame fan-out κ, the small table K — one row
// (global index, local index of the area root in the upper area, local
// fan-out) per area — suffices to compute the parent of any identifier
// entirely in main memory (Lemma 1, the rparent() algorithm of Fig. 6),
// to decide ancestor/descendant and preceding/following order
// (Lemmas 2 and 3), and to generate every positional XPath axis (§3.5):
// each axis is one in-place scan of an area's slot list between bounds
// derived from the identifier (axes.go), which yields the node sitting at
// each slot (VisitX) or the slot's identifier (AppendX) and stops when its
// consumer does.
//
// A node carries its identifier: Build, Load and every update write it into
// the node's xmltree.NodeNum stamp, RUID reads it back, and NodeOfID goes
// the other way through the slot arrays of table K. That pair is the one
// node↔identifier binding — the same in a built numbering, a fork of one
// and a cold bundle — and no per-node table exists beside it. Two rules
// keep it sound: a tree carries at most one ruid numbering at a time (a
// node has one stamp), and anything that renumbers a whole tree computes
// the complete table K first and commits stamps only on success, so a
// failed operation leaves tree and numbering exactly as they were.
package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/xmltree"
)

// ID is a 2-level ruid (g, l, r) per Definition 3 of the paper. The zero
// value is not a valid identifier; the document root is (1, 1, true).
type ID struct {
	Global int64 // index of the UID-local area (the node's own area if Root)
	Local  int64 // index inside the area (inside the upper area if Root)
	Root   bool  // whether the node is the root of a UID-local area
}

// RootID is the identifier of the document root (Definition 3).
var RootID = ID{Global: 1, Local: 1, Root: true}

// stamp is the form in which a node carries id (see Numbering.RUID).
func (id ID) stamp() xmltree.NodeNum {
	return xmltree.NodeNum{G: id.Global, L: id.Local, R: id.Root}
}

// String renders the identifier the way the paper writes it,
// e.g. "(10, 9, true)".
func (id ID) String() string {
	return fmt.Sprintf("(%d, %d, %v)", id.Global, id.Local, id.Root)
}

// KeyBytes is the length of the Key encoding.
const KeyBytes = 17

// Key returns a 17-byte encoding — 8-byte big-endian global index, 8-byte
// big-endian local index, root flag — whose bytes.Compare order sorts
// "first by the global index, and then by local index" exactly as the paper
// prescribes for RDBMS storage (§2.1).
func (id ID) Key() []byte {
	var b [KeyBytes]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(id.Global))
	binary.BigEndian.PutUint64(b[8:16], uint64(id.Local))
	if id.Root {
		b[16] = 1
	}
	return b[:]
}

// DecodeKey parses a Key back into an ID. It returns false if the buffer is
// not a valid encoding.
func DecodeKey(b []byte) (ID, bool) {
	if len(b) != KeyBytes || b[16] > 1 {
		return ID{}, false
	}
	return ID{
		Global: int64(binary.BigEndian.Uint64(b[0:8])),
		Local:  int64(binary.BigEndian.Uint64(b[8:16])),
		Root:   b[16] == 1,
	}, true
}

// KRow is one row of the global parameter table K (Fig. 5): it describes
// one UID-local area.
type KRow struct {
	Global    int64 // global index of the area
	RootLocal int64 // local index of the area's root inside the upper area
	Fanout    int64 // maximal fan-out kᵢ used to enumerate the area
}

// String renders the row like the columns of Fig. 5.
func (r KRow) String() string {
	return fmt.Sprintf("%d\t%d\t%d", r.Global, r.RootLocal, r.Fanout)
}
