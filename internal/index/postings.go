package index

import (
	"fmt"
	"unsafe"

	"repro/internal/core"
)

// Block-compressed posting lists. A PostingList holds one name's postings
// in document order, grouped into blocks of at most BlockSize entries. A
// block's first identifier is stored uncompressed in its Skip entry; the
// remaining entries are delta-encoded against their predecessor with the
// core varint codec (core.AppendIDDelta), so the common same-area step
// costs 2 bytes instead of a resident 24-byte core.ID. Every read of a
// block — the scan, the splice, the load-path validation — decodes it with
// the one block decoder, core.AppendIDDeltas. The skip entries are
// what the join iterator (ForEachRun, seek.go) reads: each carries the
// block's first and last identifier and the range of UID-local areas
// (Global components) present in it, so a join can decide per block —
// without decoding — whether the block can possibly contribute and gallop
// over the ones that cannot.
//
// A list is a directory of pointers to immutable blocks, each holding its
// skip entry and its own delta bytes. Nothing mutates a block once a list
// holds it, so epochs share blocks by pointer: a splice (delta.go) copies
// the directory and writes only the blocks it changes. Build and
// PostingListFromParts lay out a list's blocks in one backing array and its
// bytes in one array the blocks subslice, so a list nothing has spliced
// reads as contiguously as a flat one. The flat persisted form — one skip
// table over one byte region — is what Skips and DataBytes assemble.

// BlockSize is the maximal number of postings per block. 128 keeps the
// skip-table overhead under a byte per posting while leaving blocks small
// enough that a selective join skips most of a large list.
const BlockSize = 128

// Skip is one skip-table entry describing one block.
type Skip struct {
	First     core.ID // first posting, stored uncompressed
	Last      core.ID // last posting
	MinGlobal int64   // smallest Global (UID-local area index) in the block
	MaxGlobal int64   // largest Global in the block
	Off       uint32  // start of the block's delta bytes in data
	End       uint32  // end of the block's delta bytes (entries after First)
	N         uint16  // number of postings in the block, First included
}

const skipBytes = int(unsafe.Sizeof(Skip{}))

// block is one immutable block of a list: its skip entry and its delta
// bytes, End-Off of them.
type block struct {
	Skip
	data []byte
}

// PostingList is one name's block-compressed, document-ordered postings: a
// directory of shared, immutable blocks.
type PostingList struct {
	blocks []*block
	n      int
	bytes  int // delta bytes of the blocks
}

// newList returns the list over a directory.
func newList(blocks []*block) *PostingList {
	pl := &PostingList{blocks: blocks}
	for _, blk := range blocks {
		pl.n += int(blk.N)
		pl.bytes += len(blk.data)
	}
	return pl
}

// Len returns the number of postings.
func (pl *PostingList) Len() int {
	if pl == nil {
		return 0
	}
	return pl.n
}

// NumBlocks returns the number of blocks.
func (pl *PostingList) NumBlocks() int {
	if pl == nil {
		return 0
	}
	return len(pl.blocks)
}

// First returns the list's first posting; the list must not be empty.
func (pl *PostingList) First() core.ID { return pl.blocks[0].First }

// Skips assembles the flat skip table of the persisted form: every block's
// entry, with Off/End locating its bytes in DataBytes.
func (pl *PostingList) Skips() []Skip {
	out := make([]Skip, len(pl.blocks))
	off := uint32(0)
	for i, blk := range pl.blocks {
		out[i] = blk.Skip
		out[i].Off, out[i].End = off, off+blk.End-blk.Off
		off = out[i].End
	}
	return out
}

// DataBytes assembles the delta byte region of the persisted form.
// Together with Skips and Len it is the exact persisted form.
func (pl *PostingList) DataBytes() []byte {
	if pl == nil {
		return nil
	}
	out := make([]byte, 0, pl.bytes)
	for _, blk := range pl.blocks {
		out = append(out, blk.data...)
	}
	return out
}

// SizeBytes returns the resident size of the compressed representation:
// delta bytes plus skip entries.
func (pl *PostingList) SizeBytes() int {
	if pl == nil {
		return 0
	}
	return pl.bytes + len(pl.blocks)*skipBytes
}

// AppendBlock decodes block b onto dst and returns the extended slice. A
// block is validated when it is made (Finish never emits a malformed block,
// PostingListFromParts rejects one), so a decode failure is memory
// corruption and panics.
func (pl *PostingList) AppendBlock(b int, dst []core.ID) []core.ID {
	blk := pl.blocks[b]
	dst = append(dst, blk.First)
	base := len(dst)
	dst, _, ok := core.AppendIDDeltas(dst, blk.First, blk.data, int(blk.N)-1)
	if !ok {
		panic(fmt.Sprintf("index: corrupt posting block %d at entry %d", b, 1+len(dst)-base))
	}
	return dst
}

// decodeBlockChecked decodes one block's delta bytes onto dst with full
// validation against its skip entry: every entry must decode, the bytes
// must be consumed exactly, and Last/MinGlobal/MaxGlobal must agree with
// the contents. Shared by the debug checks and PostingListFromParts.
func decodeBlockChecked(sk Skip, b int, buf []byte, dst []core.ID) ([]core.ID, error) {
	dst = append(dst, sk.First)
	base := len(dst)
	dst, used, ok := core.AppendIDDeltas(dst, sk.First, buf, int(sk.N)-1)
	if !ok {
		return dst, fmt.Errorf("block %d entry %d does not decode", b, 1+len(dst)-base)
	}
	if used != len(buf) {
		return dst, fmt.Errorf("block %d has %d trailing bytes", b, len(buf)-used)
	}
	minG, maxG := sk.First.Global, sk.First.Global
	for _, id := range dst[base:] {
		minG = min(minG, id.Global)
		maxG = max(maxG, id.Global)
	}
	if dst[len(dst)-1] != sk.Last || minG != sk.MinGlobal || maxG != sk.MaxGlobal {
		return dst, fmt.Errorf("block %d skip entry disagrees with contents", b)
	}
	return dst, nil
}

// AppendAll decodes the whole list onto dst in document order.
func (pl *PostingList) AppendAll(dst []core.ID) []core.ID {
	if pl == nil {
		return dst
	}
	for b := range pl.blocks {
		dst = pl.AppendBlock(b, dst)
	}
	return dst
}

// PostingBuilder accumulates document-ordered postings into a PostingList.
// The zero value is ready to use; Append order must be document order (the
// index debug assertions verify the result).
type PostingBuilder struct {
	skips []Skip
	data  []byte
	last  core.ID
}

// Append adds the next posting in document order.
func (b *PostingBuilder) Append(id core.ID) {
	sks := b.skips
	if len(sks) == 0 || sks[len(sks)-1].N >= BlockSize {
		off := uint32(len(b.data))
		b.skips = append(sks, Skip{
			First: id, Last: id,
			MinGlobal: id.Global, MaxGlobal: id.Global,
			Off: off, End: off, N: 1,
		})
	} else {
		sk := &sks[len(sks)-1]
		b.data = core.AppendIDDelta(b.data, b.last, id)
		sk.End = uint32(len(b.data))
		sk.Last = id
		sk.N++
		if id.Global < sk.MinGlobal {
			sk.MinGlobal = id.Global
		}
		if id.Global > sk.MaxGlobal {
			sk.MaxGlobal = id.Global
		}
	}
	b.last = id
}

// Finish returns the built list, or nil when nothing was appended. The
// builder must not be reused afterwards.
func (b *PostingBuilder) Finish() *PostingList {
	if len(b.skips) == 0 {
		return nil
	}
	pl := layout(b.skips, b.data)
	*b = PostingBuilder{}
	return pl
}

// BuildPostingList encodes a document-ordered slice.
func BuildPostingList(ids []core.ID) *PostingList {
	var b PostingBuilder
	for _, id := range ids {
		b.Append(id)
	}
	return b.Finish()
}

// layout lays a list out over a flat skip table: the block structs in one
// backing array, each block's bytes a subslice of data.
func layout(skips []Skip, data []byte) *PostingList {
	arr := make([]block, len(skips))
	dir := make([]*block, len(skips))
	for i, sk := range skips {
		arr[i] = block{Skip: sk}
		if sk.End > sk.Off {
			arr[i].data = data[sk.Off:sk.End:sk.End]
		}
		dir[i] = &arr[i]
	}
	return newList(dir)
}

// validateSkipStructure checks the decode-free half of list validation:
// block byte ranges must tile the data region exactly and the per-block
// counts must sum to n.
func validateSkipStructure(skips []Skip, dataLen, n int) error {
	total, off := 0, uint32(0)
	for i, sk := range skips {
		if sk.N == 0 || int(sk.N) > BlockSize {
			return fmt.Errorf("index: block %d has %d entries (max %d)", i, sk.N, BlockSize)
		}
		if sk.Off != off || sk.End < sk.Off || int(sk.End) > dataLen {
			return fmt.Errorf("index: block %d bytes [%d,%d) break the tiling at %d/%d",
				i, sk.Off, sk.End, off, dataLen)
		}
		off = sk.End
		total += int(sk.N)
	}
	if off != uint32(dataLen) {
		return fmt.Errorf("index: %d unclaimed data bytes", uint32(dataLen)-off)
	}
	if total != n {
		return fmt.Errorf("index: blocks hold %d postings, header says %d", total, n)
	}
	return nil
}

// PostingListFromParts assembles a list from its persisted form — a skip
// table over a dataLen-byte delta region, n postings in all — and validates
// it in full: the skip table must tile the region, and every block must
// decode to exactly what its skip entry says. Corrupt parts return an
// error, never a panic. The list keeps its own copy of data.
func PostingListFromParts(skips []Skip, n int, data []byte) (*PostingList, error) {
	if err := validateSkipStructure(skips, len(data), n); err != nil {
		return nil, err
	}
	var buf [BlockSize]core.ID
	for b, sk := range skips {
		if _, err := decodeBlockChecked(sk, b, data[sk.Off:sk.End], buf[:0]); err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
	}
	return layout(skips, append([]byte(nil), data...)), nil
}

// Postings is the read view join code consumes: either a block-compressed
// *PostingList (the index's resident form) or a plain document-ordered
// slice (intermediate pipeline results). Seek-only consumers — the
// semi-joins, twig matching — probe blocks through the skip table and never
// materialize the full slice; Materialize exists for the callers that do
// need one.
type Postings struct {
	pl  *PostingList
	ids []core.ID
}

// SlicePostings wraps a document-ordered slice.
func SlicePostings(ids []core.ID) Postings { return Postings{ids: ids} }

// BlockPostings wraps a block-compressed list.
func BlockPostings(pl *PostingList) Postings { return Postings{pl: pl} }

// Len returns the number of postings.
func (p Postings) Len() int {
	if p.pl != nil {
		return p.pl.n
	}
	return len(p.ids)
}

// List returns the block-compressed list, or nil for a slice view.
func (p Postings) List() *PostingList { return p.pl }

// Slice returns the underlying slice, or nil for a block view.
func (p Postings) Slice() []core.ID { return p.ids }

// Materialize returns the postings as one document-ordered slice. A slice
// view returns its backing slice without copying (treat it as read-only); a
// block view decodes a fresh slice — the O(n) materialization cost the
// seek-based kernels exist to avoid.
func (p Postings) Materialize() []core.ID {
	if p.pl != nil {
		return p.pl.AppendAll(make([]core.ID, 0, p.pl.n))
	}
	return p.ids
}
