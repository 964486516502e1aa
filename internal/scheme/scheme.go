// Package scheme defines the common interface implemented by every
// numbering scheme in this repository (the original UID baseline, the
// preorder/postorder and extended-preorder baselines, and the paper's ruid),
// together with a conformance harness that checks any implementation against
// the pointer-tree ground truth of package xmltree.
//
// A Scheme is a numbering of one tree snapshot: it assigns each node a
// unique identifier from which structural relationships can be recovered.
// The central distinction the paper draws is between schemes that can only
// *compare* two given identifiers (pre/post) and UID-family schemes that can
// *compute* related identifiers — the parent's, the candidate children's —
// from a node's identifier alone, using only small in-memory tables.
package scheme

import (
	"errors"

	"repro/internal/xmltree"
)

// ErrOverflow reports that an identifier, or a component of one, does not fit
// the machine integer its scheme stores it in. Every scheme returns this one
// value, wrapped with what overflowed and where, so errors.Is agrees across
// schemes; the packages re-export it under their own names.
var ErrOverflow = errors.New("scheme: identifier exceeds int64")

// ID is an opaque node identifier. Implementations provide value types with
// meaningful String and Key representations.
type ID interface {
	// String renders the identifier the way the paper writes it,
	// e.g. "23" for an original UID or "(10, 9, true)" for a 2-level ruid.
	String() string
	// Key returns a byte string such that bytes.Compare on keys orders
	// identifiers first by containing area/document position group and is
	// unique per node. Keys are used as index keys by internal/storage.
	Key() []byte
}

// Scheme is a numbering of a tree snapshot.
type Scheme interface {
	// Name identifies the scheme in benchmark output ("uid", "ruid", ...).
	Name() string

	// IDOf returns the identifier assigned to a node, and false if the node
	// was not part of the numbered snapshot.
	IDOf(n *xmltree.Node) (ID, bool)

	// NodeOf resolves an identifier back to its node, and false if no node
	// carries the identifier (for UID-family schemes the identifier space
	// includes virtual nodes that resolve to nothing).
	NodeOf(id ID) (*xmltree.Node, bool)

	// Parent computes the identifier of the parent of id, and false if id
	// identifies the root. For UID-family schemes this is pure arithmetic
	// over in-memory parameters, with no access to the tree.
	Parent(id ID) (ID, bool)

	// IsAncestor reports whether anc is a proper ancestor of desc, decided
	// from the identifiers alone.
	IsAncestor(anc, desc ID) bool

	// CompareOrder compares two identifiers in document order: -1 if a
	// precedes b, +1 if a follows b, 0 if equal. An ancestor precedes its
	// descendants.
	CompareOrder(a, b ID) int
}

// AxisScheme is implemented by schemes that can generate the positional
// XPath axes of §3.5 of the paper directly from an identifier.
// All returned sets contain only identifiers of existing nodes, in document
// order except PrecedingSiblings and Ancestors, which follow the XPath
// reverse-axis convention (nearest first).
type AxisScheme interface {
	Scheme

	Ancestors(id ID) []ID
	Children(id ID) []ID
	Descendants(id ID) []ID
	FollowingSiblings(id ID) []ID
	PrecedingSiblings(id ID) []ID
	Following(id ID) []ID
	Preceding(id ID) []ID
}

// Updatable is implemented by schemes that support structural update of the
// numbered snapshot (§3.2 of the paper). The tree itself is mutated by the
// caller through xmltree; the scheme keeps its numbering in sync and reports
// how many existing identifiers had to change.
type Updatable interface {
	Scheme

	// InsertChild attaches newChild into the snapshot as the pos-th child
	// of parent (the xmltree mutation is performed by the scheme so that
	// numbering and tree cannot diverge) and returns statistics about the
	// identifier changes the insertion caused.
	InsertChild(parent *xmltree.Node, pos int, newChild *xmltree.Node) (UpdateStats, error)

	// DeleteChild removes the pos-th child of parent (cascading, per §3.2)
	// and returns statistics about the identifier changes.
	DeleteChild(parent *xmltree.Node, pos int) (UpdateStats, error)
}

// UpdateStats quantifies the renumbering scope of one structural update —
// the central metric of experiments E1 and E6.
type UpdateStats struct {
	// Relabeled is the number of pre-existing nodes whose identifier
	// changed (the inserted node itself does not count; deleted nodes do
	// not count).
	Relabeled int
	// FullRebuild reports that the whole document had to be renumbered
	// (original UID when the global fan-out k overflows).
	FullRebuild bool
	// AreaRebuilds is the number of UID-local areas that had to be
	// re-enumerated with a larger local fan-out (ruid only).
	AreaRebuilds int
}

// Add accumulates other into s.
func (s *UpdateStats) Add(other UpdateStats) {
	s.Relabeled += other.Relabeled
	if other.FullRebuild {
		s.FullRebuild = true
	}
	s.AreaRebuilds += other.AreaRebuilds
}
