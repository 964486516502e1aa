package index

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/core"
)

// Block-compressed posting lists. A PostingList holds one name's postings
// in document order, grouped into blocks of at most BlockSize entries. A
// block's first identifier is stored uncompressed in its Skip entry; the
// remaining entries are delta-encoded against their predecessor with the
// core varint codec (core.AppendIDDelta), so the common same-area step
// costs 2 bytes instead of a resident 24-byte core.ID. The skip entries are
// what the join iterator (ForEachRun, seek.go) reads: each carries the
// block's first and last identifier and the range of UID-local areas
// (Global components) present in it, so a join can decide per block —
// without decoding — whether the block can possibly contribute and gallop
// over the ones that cannot.
//
// A list is a directory of pointers to immutable blocks, each holding its
// skip entry and its own delta bytes (or, for a block read from a paged
// list, where those bytes sit behind its BlockSource). Nothing mutates a
// block once a list holds it, so epochs share blocks by pointer: a splice
// (delta.go) copies the directory and writes only the blocks it changes.
// Build, PostingListFromParts and PagedPostingList lay out a list's blocks
// in one backing array and its bytes in one array the blocks subslice, so a
// list nothing has spliced reads as contiguously as a flat one. The flat
// persisted form — one skip table over one byte region — is what Skips and
// DataBytes assemble.

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

// block is one immutable block of a list. End-Off is its byte length. A
// resident block's bytes are data; a paged block's are [Off, End) of its
// blob, and data is nil.
type block struct {
	Skip
	data []byte
	blob *blob
}

// blob is a paged list's delta region behind its source, one per
// PagedPostingList and shared by every block read from it.
type blob struct{ src BlockSource }

// BlockSource supplies a paged posting list's delta bytes on demand: the
// out-of-core form, where only the skip entries are memory-resident and
// block bytes live in buffer-pool pages (storage.BlockStore implements it).
// ReadRange appends bytes [off, end) of the list's data region to dst.
type BlockSource interface {
	ReadRange(off, end uint32, dst []byte) ([]byte, error)
}

// PagedError wraps an I/O or validation failure on the paged posting fault
// path. The block decode sites shared by all join kernels cannot return
// errors without threading them through every signature, so a paged fault
// failure panics with *PagedError; query.Planner recovers it at the query
// boundary (for serial and parallel plans alike — internal/exec re-raises
// worker panics) and returns it as an ordinary error.
type PagedError struct {
	Block int   // block index whose fault failed
	Err   error // the underlying I/O or validation error
}

func (e *PagedError) Error() string {
	return fmt.Sprintf("index: paged postings block %d: %v", e.Block, e.Err)
}

func (e *PagedError) Unwrap() error { return e.Err }

// PostingList is one name's block-compressed, document-ordered postings: a
// directory of shared, immutable blocks, any of which may be paged.
type PostingList struct {
	blocks   []*block
	n        int
	resident int // delta bytes of the resident blocks
}

// newList returns the list over a directory.
func newList(blocks []*block) *PostingList {
	pl := &PostingList{blocks: blocks}
	for _, blk := range blocks {
		pl.n += int(blk.N)
		pl.resident += len(blk.data)
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

// PagedBlocks returns how many blocks keep their bytes behind a
// BlockSource rather than in memory.
func (pl *PostingList) PagedBlocks() int {
	if pl == nil {
		return 0
	}
	paged := 0
	for _, blk := range pl.blocks {
		if blk.blob != nil {
			paged++
		}
	}
	return paged
}

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

// DataBytes assembles the delta byte region of the persisted form, faulting
// paged blocks' bytes through their source (a run of paged blocks adjacent
// in their blob is one read). Together with Skips and Len it is the exact
// persisted form.
func (pl *PostingList) DataBytes() ([]byte, error) {
	if pl == nil {
		return nil, nil
	}
	size := 0
	for _, blk := range pl.blocks {
		size += int(blk.End - blk.Off)
	}
	out := make([]byte, 0, size)
	for i := 0; i < len(pl.blocks); {
		blk := pl.blocks[i]
		if blk.blob == nil {
			out = append(out, blk.data...)
			i++
			continue
		}
		end := blk.End
		for i++; i < len(pl.blocks) && pl.blocks[i].blob == blk.blob && pl.blocks[i].Off == end; i++ {
			end = pl.blocks[i].End
		}
		var err error
		if out, err = blk.blob.src.ReadRange(blk.Off, end, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SizeBytes returns the resident size of the compressed representation:
// delta bytes plus skip entries. A paged block's bytes are not resident, so
// only its skip entry counts — the footprint Lemma 1's in-memory table K
// argument is about.
func (pl *PostingList) SizeBytes() int {
	if pl == nil {
		return 0
	}
	return pl.resident + len(pl.blocks)*skipBytes
}

// AppendBlock decodes block b onto dst and returns the extended slice. A
// resident block is validated when it is made (Finish never emits a
// malformed block, FromParts rejects one), so a decode failure is memory
// corruption and panics. A paged block is revalidated against its skip
// entry on every fault — torn or corrupted pages surface as a *PagedError
// panic that query.Planner converts to an error.
func (pl *PostingList) AppendBlock(b int, dst []core.ID) []core.ID {
	blk := pl.blocks[b]
	if blk.blob != nil {
		out, err := blk.appendPaged(b, dst)
		if err != nil {
			panic(&PagedError{Block: b, Err: err})
		}
		return out
	}
	dst = append(dst, blk.First)
	prev := blk.First
	buf := blk.data
	for i := 1; i < int(blk.N); i++ {
		id, n, ok := core.DecodeIDDelta(buf, prev)
		if !ok {
			panic(fmt.Sprintf("index: corrupt posting block %d at entry %d", b, i))
		}
		dst = append(dst, id)
		buf = buf[n:]
		prev = id
	}
	return dst
}

// TryAppendBlock is AppendBlock with an error return instead of the
// *PagedError panic, for callers (the splice, tests, tools) that probe
// possibly-corrupt paged blocks directly. On error dst's appended tail is
// garbage and the original prefix should be re-sliced by the caller.
func (pl *PostingList) TryAppendBlock(b int, dst []core.ID) ([]core.ID, error) {
	if blk := pl.blocks[b]; blk.blob != nil {
		return blk.appendPaged(b, dst)
	}
	return pl.AppendBlock(b, dst), nil
}

// blockBytesPool recycles the byte scratch paged faults decode from, so a
// seek over a paged list allocates once per goroutine rather than per
// block.
var blockBytesPool = sync.Pool{New: func() any { return new([]byte) }}

// appendPaged faults a paged block (block b of its list) and decodes it
// onto dst.
func (blk *block) appendPaged(b int, dst []core.ID) ([]core.ID, error) {
	bufp := blockBytesPool.Get().(*[]byte)
	buf, err := blk.blob.src.ReadRange(blk.Off, blk.End, (*bufp)[:0])
	if err == nil {
		dst, err = decodeBlockChecked(blk.Skip, b, buf, dst)
	}
	if buf != nil {
		*bufp = buf[:0]
	}
	blockBytesPool.Put(bufp)
	return dst, err
}

// decodeBlockChecked decodes one block's delta bytes onto dst with full
// validation against its skip entry: every entry must decode, the bytes
// must be consumed exactly, and Last/MinGlobal/MaxGlobal must agree with
// the contents. Shared by load-time validation (PostingListFromParts), the
// debug checks and the paged fault path, which re-runs it on every fault —
// the same LoadPostings-grade revalidation, applied lazily per block.
func decodeBlockChecked(sk Skip, b int, buf []byte, dst []core.ID) ([]core.ID, error) {
	dst = append(dst, sk.First)
	prev := sk.First
	minG, maxG := sk.First.Global, sk.First.Global
	for j := 1; j < int(sk.N); j++ {
		id, m, ok := core.DecodeIDDelta(buf, prev)
		if !ok {
			return dst, fmt.Errorf("block %d entry %d does not decode", b, j)
		}
		buf = buf[m:]
		prev = id
		if id.Global < minG {
			minG = id.Global
		}
		if id.Global > maxG {
			maxG = id.Global
		}
		dst = append(dst, id)
	}
	if len(buf) != 0 {
		return dst, fmt.Errorf("block %d has %d trailing bytes", b, len(buf))
	}
	if prev != sk.Last || minG != sk.MinGlobal || maxG != sk.MaxGlobal {
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
	pl := layout(b.skips, b.data, nil)
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
// backing array, each resident block's bytes a subslice of data, or, when
// paged is set, every block paged at its [Off, End) of that blob.
func layout(skips []Skip, data []byte, paged *blob) *PostingList {
	arr := make([]block, len(skips))
	dir := make([]*block, len(skips))
	for i, sk := range skips {
		arr[i] = block{Skip: sk, blob: paged}
		if paged == nil && sk.End > sk.Off {
			arr[i].data = data[sk.Off:sk.End:sk.End]
		}
		dir[i] = &arr[i]
	}
	return newList(dir)
}

// PostingListFromParts reassembles a list from its persisted form and
// structurally validates it: block byte ranges must tile data exactly,
// every block must decode, and the skip entries must agree with the decoded
// contents. Corrupt input returns an error, never a panic — this is the
// storage load path. (Document-order sortedness needs the numbering and is
// checked by index.FromPostingLists.)
func PostingListFromParts(data []byte, skips []Skip, n int) (*PostingList, error) {
	if err := validateSkipStructure(skips, len(data), n); err != nil {
		return nil, err
	}
	var scratch []core.ID
	for i, sk := range skips {
		var err error
		scratch, err = decodeBlockChecked(sk, i, data[sk.Off:sk.End], scratch[:0])
		if err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
	}
	return layout(skips, data, nil), nil
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

// PagedPostingList assembles the out-of-core form: resident skip entries
// over a dataLen-byte delta region that lives behind src. Only the
// decode-free structural validation runs here — faulting every block to
// verify its contents would defeat a cold open, so content validation is
// deferred to each fault (decodeBlockChecked in appendPaged), which rejects
// torn or corrupt pages at read time.
func PagedPostingList(skips []Skip, n, dataLen int, src BlockSource) (*PostingList, error) {
	if src == nil {
		return nil, fmt.Errorf("index: paged posting list needs a block source")
	}
	if err := validateSkipStructure(skips, dataLen, n); err != nil {
		return nil, err
	}
	return layout(skips, nil, &blob{src}), nil
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

// units returns how many units ForEachRun walks: blocks of a block or paged
// view, identifiers of a slice view.
func (p Postings) units() int {
	if p.pl != nil {
		return len(p.pl.blocks)
	}
	return len(p.ids)
}

// List returns the block-compressed list, or nil for a slice view.
func (p Postings) List() *PostingList { return p.pl }

// Slice returns the underlying slice, or nil for a block view.
func (p Postings) Slice() []core.ID { return p.ids }

// AppendAll decodes or copies every posting onto dst in document order.
func (p Postings) AppendAll(dst []core.ID) []core.ID {
	if p.pl != nil {
		return p.pl.AppendAll(dst)
	}
	return append(dst, p.ids...)
}

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
