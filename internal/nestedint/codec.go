// Package nestedint implements Tropashko's nested-intervals numbering with
// the continued-fraction materialized-path encoding.
//
// Every node is addressed by its sibling path c₁.c₂…c_k — the 1-based child
// ranks along the path from the document root (which has path "1"). The
// path is folded into a single rational num/den through the canonical
// continued fraction [c₁; c₂, …, c_{k−1}, c_k+1]: incrementing the last
// term makes every encoding end in a term ≥ 2, which is exactly the
// canonical form that makes continued fractions unique, so the rational and
// the path determine each other. Parent, ancestor and sibling identifiers
// are therefore computable from a label alone — run Euclid's algorithm on
// num/den to recover the path, edit it, and re-encode — which places the
// scheme in the paper's UID family rather than the pre/post family.
//
// The subtree of a node occupies a contiguous rational interval pinned at
// the node's own value (at the top or the bottom of the interval depending
// on the parity of the node's depth); sibling and parent values bound it on
// the other side. The property tests in this package verify that these
// intervals nest along ancestor chains.
//
// All arithmetic is int64 with explicit overflow checks. Labels grow
// multiplicatively with the path's rank product (Fibonacci-like for chains
// of first children), so deep or very wide documents can exceed 63 bits;
// any operation that would is rejected with ErrOverflow and the document is
// left untouched (the relabel-on-overflow policy: the caller re-opens the
// document under a scheme with bounded labels, such as ruid).
package nestedint

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/scheme"
)

// ErrOverflow is the sentinel returned when a continued-fraction label does
// not fit in int64. It is returned wrapped; test with errors.Is. It is the
// sentinel every scheme shares.
var ErrOverflow = scheme.ErrOverflow

// ErrMalformed is the sentinel returned when a rational is not a canonical
// continued-fraction encoding of any sibling path.
var ErrMalformed = errors.New("nestedint: rational is not a canonical continued-fraction label")

// EncodePath folds a sibling path (1-based child ranks from the document
// root) into its canonical continued-fraction rational. The empty path is
// invalid, as is any rank < 1.
func EncodePath(path []uint32) (num, den int64, err error) {
	if len(path) == 0 {
		return 0, 0, errors.New("nestedint: empty path")
	}
	k := len(path)
	for _, c := range path {
		if c < 1 {
			return 0, 0, errors.New("nestedint: sibling rank < 1")
		}
	}
	// Canonical terms: a_i = c_i for i < k−1, a_{k−1} = c_{k−1}+1.
	// Fold back-to-front: x = a_i + 1/x.
	num, den = int64(path[k-1])+1, 1
	for i := k - 2; i >= 0; i-- {
		a := int64(path[i])
		// next num = a*num + den; den = old num
		if num > (math.MaxInt64-den)/a {
			return 0, 0, fmt.Errorf("nestedint: encoding path component %d: %w", i, ErrOverflow)
		}
		num, den = a*num+den, num
	}
	return num, den, nil
}

// DecodePath recovers the sibling path from a canonical rational by running
// Euclid's algorithm. It rejects rationals that are not canonical labels
// (non-positive parts, common factors surfacing as a zero term, or a final
// continued-fraction term < 2).
func DecodePath(num, den int64) ([]uint32, error) {
	if num <= 0 || den <= 0 || num <= den {
		return nil, ErrMalformed
	}
	var terms []int64
	for den > 0 {
		a, r := num/den, num%den
		terms = append(terms, a)
		num, den = den, r
	}
	// num is now gcd(original num, den); canonical labels are reduced.
	if num != 1 {
		return nil, ErrMalformed
	}
	k := len(terms)
	if terms[k-1] < 2 {
		return nil, ErrMalformed
	}
	path := make([]uint32, k)
	for i, a := range terms {
		if i == k-1 {
			a--
		}
		if a < 1 || a > math.MaxUint32 {
			return nil, ErrMalformed
		}
		path[i] = uint32(a)
	}
	return path, nil
}
