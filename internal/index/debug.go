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
// duplicates), every block's Skip entry agrees with its decoded contents
// (First/Last identifiers, Global window, entry count) and the block byte
// ranges tile the data exactly. It returns nil for generic (boxed) indexes,
// whose postings inherit walk order from Build and are never patched.
func (ix *NameIndex) CheckSorted() error {
	if ix.ruid == nil {
		return nil
	}
	for name, pl := range ix.ruidByName {
		if err := checkPostingList(ix.ruid, name, pl); err != nil {
			return err
		}
	}
	return nil
}

// checkPostingList validates one list's block structure and document order.
// A paged list is checked without faulting any block bytes — decode-free
// skip-table structure plus document order over the resident First/Last
// identifiers — so a cold open stays cold; the fault path revalidates block
// contents on every read instead.
func checkPostingList(rn *core.Numbering, name string, pl *PostingList) error {
	if pl.Len() == 0 {
		return fmt.Errorf("index: empty posting list stored for %q", name)
	}
	if pl.Paged() {
		if err := validateSkipStructure(pl.skips, pl.DataLen(), pl.n); err != nil {
			return fmt.Errorf("index: postings for %q: %w", name, err)
		}
		var prev core.ID
		for b, sk := range pl.skips {
			if b > 0 && rn.CompareOrderID(prev, sk.First) >= 0 {
				return fmt.Errorf("index: paged postings for %q out of document order at block %d", name, b)
			}
			if sk.N > 1 && rn.CompareOrderID(sk.First, sk.Last) >= 0 {
				return fmt.Errorf("index: paged postings for %q block %d First !< Last", name, b)
			}
			prev = sk.Last
		}
		return nil
	}
	// Re-running the structural validation on our own parts catches a
	// builder bug (or in-place mutation) the same way it catches a corrupt
	// snapshot on load.
	if _, err := PostingListFromParts(pl.data, pl.skips, pl.n); err != nil {
		return fmt.Errorf("index: postings for %q: %w", name, err)
	}
	var prev core.ID
	first := true
	var buf [BlockSize]core.ID
	for b := 0; b < pl.NumBlocks(); b++ {
		for _, id := range pl.AppendBlock(b, buf[:0]) {
			if !first && rn.CompareOrderID(prev, id) >= 0 {
				return fmt.Errorf("index: postings for %q out of document order: %v !< %v",
					name, prev, id)
			}
			prev = id
			first = false
		}
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
