// Varint delta codec for ID keys.
//
// Block-compressed posting lists (internal/index) store runs of
// document-ordered identifiers. Consecutive postings almost always live in
// the same or an adjacent UID-local area, so the component deltas
// (ΔGlobal, ΔLocal) are tiny signed integers even though the flat Key()
// encoding is 17 bytes. Each delta entry is two unsigned varints:
//
//	uvarint( zigzag(ΔGlobal)<<1 | rootBit )
//	uvarint( zigzag(ΔLocal) )
//
// A same-area non-root posting with a small local step — the common case —
// encodes in 2 bytes, versus 24 resident bytes for a core.ID, and
// AppendIDDeltas decodes it without a varint loop: two bytes below 0x80 are
// the two varints whole.
//
// The shifted first varint caps |ΔGlobal| at 2^61-1; Load already rejects
// numberings anywhere near that many areas, so every identifier a valid
// Numbering hands out round-trips.
package core

import (
	"encoding/binary"
	"slices"
)

// zigzag maps signed deltas onto unsigned so small negatives stay short.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendIDDelta appends the delta encoding of id relative to prev.
func AppendIDDelta(dst []byte, prev, id ID) []byte {
	root := uint64(0)
	if id.Root {
		root = 1
	}
	dst = binary.AppendUvarint(dst, zigzag(id.Global-prev.Global)<<1|root)
	dst = binary.AppendUvarint(dst, zigzag(id.Local-prev.Local))
	return dst
}

// DecodeIDDelta decodes one delta entry from the front of b, relative to
// prev. It returns the identifier, the number of bytes consumed and whether
// the buffer held a well-formed entry; malformed or truncated input returns
// ok=false and never panics.
func DecodeIDDelta(b []byte, prev ID) (id ID, n int, ok bool) {
	u1, n1 := binary.Uvarint(b)
	if n1 <= 0 {
		return ID{}, 0, false
	}
	u2, n2 := binary.Uvarint(b[n1:])
	if n2 <= 0 {
		return ID{}, 0, false
	}
	return ID{
		Global: prev.Global + unzigzag(u1>>1),
		Local:  prev.Local + unzigzag(u2),
		Root:   u1&1 == 1,
	}, n1 + n2, true
}

// AppendIDDeltas decodes n consecutive delta entries from the front of data,
// the first relative to prev and each later one relative to its predecessor,
// and appends them to dst, which grows once by n. It returns the extended
// slice, the number of bytes consumed and whether all n entries were
// well-formed. An entry both of whose varints are one byte — the common
// same-area step — is decoded inline; any other goes through DecodeIDDelta.
// On malformed or truncated input it returns ok=false with dst extended by
// the entries decoded before the bad one and the bytes they consumed, so the
// failing entry is the one DecodeIDDelta would reject; it never panics on
// any data. n must not be negative.
func AppendIDDeltas(dst []ID, prev ID, data []byte, n int) ([]ID, int, bool) {
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	off := 0
	for i := range out {
		if b := data[off:]; len(b) >= 2 && b[0] < 0x80 && b[1] < 0x80 {
			u1 := uint64(b[0])
			prev = ID{
				Global: prev.Global + unzigzag(u1>>1),
				Local:  prev.Local + unzigzag(uint64(b[1])),
				Root:   u1&1 == 1,
			}
			off += 2
		} else {
			id, m, ok := DecodeIDDelta(b, prev)
			if !ok {
				return dst[:base+i], off, false
			}
			prev = id
			off += m
		}
		out[i] = prev
	}
	return dst, off, true
}
