package uid

import (
	"fmt"
	"math"

	"repro/internal/xmltree"
)

// Numbering64 is the int64 fast path of the original UID: identifiers are
// machine integers and Build64 fails with ErrOverflow as soon as any real
// node's identifier would exceed int64. It exists to measure how quickly
// the original scheme outgrows machine arithmetic (experiment E3) and how
// fast formula (1) is when it does fit (experiment E4).
type Numbering64 struct {
	K   int64
	IDs map[*xmltree.Node]int64
	Max int64
}

// Build64 enumerates doc with the given k (0 = maximal fan-out) in int64
// arithmetic. It returns ErrOverflow if any identifier exceeds int64.
func Build64(doc *xmltree.Node, k int64) (*Numbering64, error) {
	root := doc
	if doc.Kind == xmltree.Document {
		root = doc.DocumentElement()
		if root == nil {
			return nil, fmt.Errorf("uid: document has no root element")
		}
	}
	if k == 0 {
		k = int64(maxFanout(root, false))
		if k == 0 {
			k = 1
		}
	}
	n := &Numbering64{K: k, IDs: make(map[*xmltree.Node]int64)}
	if err := n.assign(root, 1); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *Numbering64) assign(node *xmltree.Node, id int64) error {
	n.IDs[node] = id
	if id > n.Max {
		n.Max = id
	}
	if int64(node.NumChildren()) > n.K {
		return fmt.Errorf("%w: node %s has %d children, k = %d",
			ErrFanout, node.Path(), node.NumChildren(), n.K)
	}
	for j := 0; j < node.NumChildren(); j++ {
		c := node.Child(j)
		cid, ok := child64(id, n.K, j)
		if !ok {
			return fmt.Errorf("%w: child of %d with k=%d", ErrOverflow, id, n.K)
		}
		if err := n.assign(c, cid); err != nil {
			return err
		}
	}
	return nil
}

// child64 computes (i−1)·k + 2 + j with overflow detection.
func child64(i, k int64, j int) (int64, bool) {
	base := i - 1
	if base != 0 && base > (math.MaxInt64-int64(2+j))/k {
		return 0, false
	}
	return base*k + 2 + int64(j), true
}

// Fits64 reports whether the natural-k UID enumeration of doc stays within
// int64.
func Fits64(doc *xmltree.Node) bool {
	_, err := Build64(doc, 0)
	return err == nil
}

// RequiredBits returns the number of bits of the largest identifier the
// natural-k enumeration of doc assigns to a real node, computed exactly
// with the big-integer numbering.
func RequiredBits(doc *xmltree.Node) (int, error) {
	n, err := Build(doc, Options{})
	if err != nil {
		return 0, err
	}
	return n.Bits(), nil
}
