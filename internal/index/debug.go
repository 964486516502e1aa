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
// they belong to — neither ever sorts a list. The execution layer
// (internal/exec) leans on it: the probe's window is a contiguous range of
// a list, and every join output is document-ordered without a sort. Because
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
// duplicates), every block's Skip entry agrees with its decoded contents
// (First/Last identifiers, Global window, entry count, byte extent) and the
// block counts sum to the list's.
func (ix *NameIndex) CheckSorted() error {
	return ix.check(false)
}

// check runs checkPostingList over every list, climbing each identifier to
// the root first when climb is set.
func (ix *NameIndex) check(climb bool) error {
	for name, pl := range ix.ruidByName {
		if err := checkPostingList(ix.ruid, name, pl, climb); err != nil {
			return err
		}
	}
	return nil
}

// checkPostingList validates one list block by block: every block decoded
// in full against its skip entry, and strict document order across the
// whole list. With climb set every identifier's RParent chain must reach
// the root before it is compared (climbsToRoot): identifiers read from
// outside the program are checked so.
func checkPostingList(rn *core.Numbering, name string, pl *PostingList, climb bool) error {
	if pl.Len() == 0 {
		return fmt.Errorf("index: empty posting list stored for %q", name)
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("index: postings for %q: "+format, append([]any{name}, args...)...)
	}
	var (
		prev         core.ID
		total, bytes int
		buf          [BlockSize]core.ID
	)
	for b, blk := range pl.blocks {
		if blk.N == 0 || int(blk.N) > BlockSize {
			return fail("block %d has %d entries (max %d)", b, blk.N, BlockSize)
		}
		if blk.End < blk.Off || len(blk.data) != int(blk.End-blk.Off) {
			return fail("block %d holds %d bytes, its extent [%d,%d)", b, len(blk.data), blk.Off, blk.End)
		}
		total += int(blk.N)
		bytes += len(blk.data)
		ids, err := decodeBlockChecked(blk.Skip, b, blk.data, buf[:0])
		if err != nil {
			return fail("%w", err)
		}
		for i, id := range ids {
			if climb && !climbsToRoot(rn, id) {
				return fail("block %d holds %v, whose parent chain does not reach the root", b, id)
			}
			if (b > 0 || i > 0) && rn.CompareOrderID(prev, id) >= 0 {
				return fail("out of document order at block %d: %v !< %v", b, prev, id)
			}
			prev = id
		}
	}
	if total != pl.n || bytes != pl.bytes {
		return fail("blocks hold %d postings in %d bytes, the list says %d in %d", total, bytes, pl.n, pl.bytes)
	}
	return nil
}

// climbsToRoot reports whether id's RParent chain ends at the document root,
// which comparing it in document order presumes: a corrupt snapshot's
// identifier fails here instead of inside the comparison. No chain of the
// numbering is longer than its node count, so a longer climb fails too.
func climbsToRoot(rn *core.Numbering, id core.ID) bool {
	for steps := 0; id != core.RootID; steps++ {
		p, ok, err := rn.RParent(id)
		if err != nil || !ok || steps > rn.Size() {
			return false
		}
		id = p
	}
	return true
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
