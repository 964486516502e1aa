package index

import (
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/core"
)

// Document-order sortedness is a maintained invariant of NameIndex
// postings: Build emits walk order, and ApplyDelta preserves order by
// substituting in place and merging inserted identifiers into the block
// they belong to — neither ever sorts a list. The parallel execution layer (internal/exec) leans on
// the invariant twice: contiguous posting shards can be joined
// independently, and shard outputs merge by plain concatenation. Because
// nothing re-sorts per query, a violation would surface as wrong query
// results, not a crash; the debug check below turns it into a loud failure
// at the point of corruption instead.

// debugChecks gates the O(postings) sortedness verification after Build and
// ApplyDelta. It defaults to the RUID_DEBUG environment variable and is
// toggled programmatically by tests.
var debugChecks atomic.Bool

func init() {
	if os.Getenv("RUID_DEBUG") != "" {
		debugChecks.Store(true)
	}
}

// SetDebugChecks enables or disables the sortedness assertions and returns
// the previous setting.
func SetDebugChecks(on bool) bool {
	return debugChecks.Swap(on)
}

// CheckSorted verifies the postings invariant at block granularity: every
// posting list is strictly ascending in document order (which implies no
// duplicates), every resident block's Skip entry agrees with its decoded
// contents (First/Last identifiers, Global window, entry count, byte
// extent) and the block counts sum to the list's.
func (ix *NameIndex) CheckSorted() error {
	for name, pl := range ix.ruidByName {
		if err := checkPostingList(ix.ruid, name, pl); err != nil {
			return err
		}
	}
	return nil
}

// checkPostingList validates one list block by block: every block's count
// and byte extent, and strict document order across the whole list. A
// resident block is decoded in full against its skip entry; a paged block is
// checked without faulting its bytes — its First/Last in order, its byte
// range after the previous paged block's in their blob — so a cold open
// stays cold; the fault path revalidates its contents on every read instead.
func checkPostingList(rn *core.Numbering, name string, pl *PostingList) error {
	if pl.Len() == 0 {
		return fmt.Errorf("index: empty posting list stored for %q", name)
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("index: postings for %q: "+format, append([]any{name}, args...)...)
	}
	var (
		prev            core.ID
		pagedBlob       *blob
		pagedEnd        uint32
		total, resident int
		buf             [BlockSize]core.ID
	)
	for b, blk := range pl.blocks {
		if blk.N == 0 || int(blk.N) > BlockSize {
			return fail("block %d has %d entries (max %d)", b, blk.N, BlockSize)
		}
		if blk.End < blk.Off {
			return fail("block %d has bytes [%d,%d)", b, blk.Off, blk.End)
		}
		total += int(blk.N)
		ids := buf[:0]
		if blk.blob == nil {
			if len(blk.data) != int(blk.End-blk.Off) {
				return fail("block %d holds %d bytes, its extent says %d", b, len(blk.data), blk.End-blk.Off)
			}
			resident += len(blk.data)
			var err error
			if ids, err = decodeBlockChecked(blk.Skip, b, blk.data, ids); err != nil {
				return fail("%w", err)
			}
		} else {
			if blk.blob == pagedBlob && blk.Off < pagedEnd {
				return fail("paged block %d bytes [%d,%d) overlap the previous paged block's", b, blk.Off, blk.End)
			}
			pagedBlob, pagedEnd = blk.blob, blk.End
			ids = append(ids, blk.First)
			if blk.N > 1 {
				ids = append(ids, blk.Last)
			}
		}
		for i, id := range ids {
			if (b > 0 || i > 0) && rn.CompareOrderID(prev, id) >= 0 {
				return fail("out of document order at block %d: %v !< %v", b, prev, id)
			}
			prev = id
		}
	}
	if total != pl.n || resident != pl.resident {
		return fail("blocks hold %d postings in %d resident bytes, the list says %d in %d", total, resident, pl.n, pl.resident)
	}
	return nil
}

// assertSorted panics on a sortedness violation when debug checks are on.
// Build and ApplyDelta call it on their result.
func (ix *NameIndex) assertSorted(op string) {
	if !debugChecks.Load() {
		return
	}
	if err := ix.CheckSorted(); err != nil {
		panic(fmt.Sprintf("index: %s broke the sortedness invariant: %v", op, err))
	}
}
