package index

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
)

// Incremental maintenance for ruid-backed indexes: epoch publication calls
// ApplyDelta with the scope of one batch of structural updates instead of
// re-walking the document with Build. Sharing with the previous epoch's
// index happens at two granularities, honoring the facade's immutability
// invariant (neither index is ever mutated): an untouched name shares its
// whole *PostingList, and inside a touched name every block the edits miss
// is shared by pointer. The next list copies the directory, a pointer per
// block; only the blocks that hold an edited posting, or that a split or a
// coalesce rewrites, are decoded, re-encoded and allocated.

// IDPair is one identifier change of a surviving element.
type IDPair struct{ Old, New core.ID }

// NameDelta lists one name's posting edits between two epochs. Relabeled.Old
// and Removed are identifiers of the previous epoch and must be present in
// its list; Relabeled.New and Inserted are identifiers of the next epoch.
// The slices need no particular order; ApplyDelta sorts Inserted in place.
type NameDelta struct {
	Relabeled []IDPair
	Removed   []core.ID
	Inserted  []core.ID
}

// DeltaStats quantifies the scope of one ApplyDelta: how much of the index
// an update actually re-encoded versus structurally shared. The document
// facade folds it into the observability registry so the paper's
// update-scope claim is visible at runtime, not just in benchmarks.
type DeltaStats struct {
	NamesTouched      int // names whose posting list was re-derived
	NamesShared       int // names whose *PostingList is shared with the previous epoch
	PostingsReencoded int // postings written into fresh blocks across touched names
	BlocksReencoded   int // fresh blocks written across touched names
	BlocksShared      int // blocks of touched names shared by pointer with the previous epoch
}

// ApplyDelta returns the next epoch's index and the scope of the patch.
// Every name absent from edits shares its *PostingList with the receiver; a
// name in edits gets a new list spliced from the previous one block by
// block (see splice). rn becomes the new index's numbering; it must be the
// next epoch's numbering. An edit of an
// identifier the previous list does not hold is an error and yields no
// index.
func (ix *NameIndex) ApplyDelta(rn *core.Numbering, edits map[string]*NameDelta) (*NameIndex, DeltaStats, error) {
	var st DeltaStats
	out := &NameIndex{ruid: rn, ruidByName: make(map[string]*PostingList, len(ix.ruidByName)+len(edits))}
	for name, pl := range ix.ruidByName {
		out.ruidByName[name] = pl
	}
	st.NamesShared = len(ix.ruidByName)
	for name, nd := range edits {
		old := ix.ruidByName[name]
		if old != nil {
			st.NamesShared--
		}
		st.NamesTouched++
		pl, err := splice(old, ix.ruid, rn, nd, &st)
		if err != nil {
			return nil, st, fmt.Errorf("index: postings of %q: %w", name, err)
		}
		if pl == nil {
			delete(out.ruidByName, name)
		} else {
			out.ruidByName[name] = pl
		}
	}
	out.assertSorted("ApplyDelta")
	return out, st, nil
}

// splicer is one splice's working state. Its slices are scratch a pool hands
// from splice to splice, none of them as long as the list, so a write
// allocates the directory and the blocks it writes and nothing else.
type splicer struct {
	old    *PostingList
	pn, rn *core.Numbering
	st     *DeltaStats

	arena  []core.ID // decoded blocks and merge results; pieces subslice it
	edited []piece   // the blocks edits decode, by old index (steps 1-2)
	pieces []piece   // the next list in order (steps 2-4)
	hits   []hit
	pend   []core.ID // the block step 4 may still coalesce into, decoded
	enc    []byte

	dir     []*block // the next list's directory (step 4)
	prev    int      // old index of dir's last block while pend is empty
	written int      // blocks of dir that step 4 encoded
}

// piece is a stretch of the list under splice: old blocks [lo, hi), shared,
// while ids is nil; one touched block's postings once it is not.
type piece struct {
	lo, hi int
	ids    []core.ID
}

// hit is an edit's position: entry pos of old block blk.
type hit struct{ blk, pos int }

var splicers = sync.Pool{New: func() any { return new(splicer) }}

// splice derives the next epoch's list of one name from the previous one.
//
//  1. Each relabeled or removed identifier is located by binary search over
//     the blocks' Last in the PREVIOUS numbering's document order (pn) — the
//     only order those identifiers have — and its block is decoded and
//     patched: substitution in place, drops. Relabeling preserves relative
//     document order, so a patched block is sorted in the next order.
//  2. Each inserted identifier is located in the NEXT numbering's order
//     (rn): an untouched block's First denotes the same node in both
//     epochs, a patched block is compared by its new contents. It joins
//     the last block that starts at or before it.
//  3. Touched blocks are normalized so that every two neighbours still hold
//     more than BlockSize postings together, the fill invariant Build
//     establishes (hence NumBlocks ≤ 2·⌈n/BlockSize⌉+1): an emptied block
//     is dropped, an overfull one is split into equal parts, and a touched
//     block is coalesced with a neighbour when the pair fits in one block.
//  4. Touched blocks are re-encoded into new blocks; every other block is
//     the previous list's, shared by pointer.
//
// A nil result means the name has no postings left.
func splice(old *PostingList, pn, rn *core.Numbering, nd *NameDelta, st *DeltaStats) (*PostingList, error) {
	sp := splicers.Get().(*splicer)
	sp.old, sp.pn, sp.rn, sp.st = old, pn, rn, st
	pl, err := sp.splice(nd)
	clear(sp.pieces) // a piece may hold the caller's Inserted
	*sp = splicer{arena: sp.arena[:0], edited: sp.edited[:0], pieces: sp.pieces[:0],
		hits: sp.hits[:0], pend: sp.pend[:0], enc: sp.enc[:0]}
	splicers.Put(sp)
	return pl, err
}

func (sp *splicer) splice(nd *NameDelta) (*PostingList, error) {
	old, pn, rn := sp.old, sp.pn, sp.rn

	// 1. Every target is found before any is patched, so the lookups read
	// the blocks as the previous epoch encoded them and a chain a→b, b→c
	// inside one block cannot capture the wrong entry.
	last := -1 // block of the previous hit: one area's edits are neighbours
	find := func(id core.ID) (hit, error) {
		if last >= 0 {
			if pos := slices.Index(sp.edited[sp.lookup(last)].ids, id); pos >= 0 {
				return hit{last, pos}, nil
			}
		}
		// The order comparison is defined on identifiers of pn only.
		if _, ok := pn.NodeOfID(id); ok {
			b := sort.Search(old.NumBlocks(), func(b int) bool {
				return pn.CompareOrderID(old.blocks[b].Last, id) >= 0
			})
			if b < old.NumBlocks() {
				i := sp.edit(b)
				if pos := slices.Index(sp.edited[i].ids, id); pos >= 0 {
					last = b
					return hit{b, pos}, nil
				}
			}
		}
		return hit{}, fmt.Errorf("edit of %v, which the previous list does not hold", id)
	}
	for _, r := range nd.Relabeled {
		h, err := find(r.Old)
		if err != nil {
			return nil, err
		}
		sp.hits = append(sp.hits, h)
	}
	for _, id := range nd.Removed {
		h, err := find(id)
		if err != nil {
			return nil, err
		}
		sp.hits = append(sp.hits, h)
	}
	for i, h := range sp.hits[:len(nd.Relabeled)] {
		sp.edited[sp.lookup(h.blk)].ids[h.pos] = nd.Relabeled[i].New
	}
	// Back to front, so a drop does not shift the positions still to go.
	drops := sp.hits[len(nd.Relabeled):]
	slices.SortFunc(drops, func(a, b hit) int {
		if a.blk != b.blk {
			return b.blk - a.blk
		}
		return b.pos - a.pos
	})
	for _, h := range drops {
		e := &sp.edited[sp.lookup(h.blk)]
		e.ids = append(e.ids[:h.pos], e.ids[h.pos+1:]...)
	}
	// The list as pieces: runs of untouched blocks between the edited ones,
	// an emptied block gone from between them.
	next := 0
	for _, e := range sp.edited {
		if e.lo > next {
			sp.pieces = append(sp.pieces, piece{lo: next, hi: e.lo})
		}
		if len(e.ids) > 0 {
			sp.pieces = append(sp.pieces, e)
		}
		next = e.hi
	}
	if next < old.NumBlocks() {
		sp.pieces = append(sp.pieces, piece{lo: next, hi: old.NumBlocks()})
	}

	// 2. Inserted identifiers, in the next order; a run bound for one block
	// is merged into it in one pass.
	ins := nd.Inserted
	slices.SortFunc(ins, rn.CompareOrderID)
	if len(sp.pieces) == 0 && len(ins) > 0 {
		sp.pieces = append(sp.pieces, piece{ids: ins})
		ins = nil
	}
	first := func(p *piece) core.ID {
		if p.ids != nil {
			return p.ids[0]
		}
		return old.blocks[p.lo].First
	}
	for cur := -1; len(ins) > 0; {
		from := cur + 1
		t := max(0, from-1+sort.Search(len(sp.pieces)-from, func(i int) bool {
			return rn.CompareOrderID(first(&sp.pieces[from+i]), ins[0]) > 0
		}))
		if p := sp.pieces[t]; p.ids == nil {
			// A run: touch its last block that starts at or before ins[0] (its
			// first, when the run is the list's start and ins[0] precedes it).
			k := p.lo + sort.Search(p.hi-p.lo-1, func(i int) bool {
				return rn.CompareOrderID(old.blocks[p.lo+1+i].First, ins[0]) > 0
			})
			ids := sp.decode(k)
			split := [3]piece{{lo: p.lo, hi: k}, {lo: k, hi: k + 1, ids: ids}, {lo: k + 1, hi: p.hi}}
			parts, at := split[:], t
			if k == p.lo {
				parts = parts[1:]
			} else {
				t++
			}
			if k+1 == p.hi {
				parts = parts[:len(parts)-1]
			}
			sp.pieces = slices.Replace(sp.pieces, at, at+1, parts...)
		}
		cur = t
		run := 1
		for run < len(ins) && (cur+1 == len(sp.pieces) || rn.CompareOrderID(first(&sp.pieces[cur+1]), ins[run]) > 0) {
			run++
		}
		sp.pieces[cur].ids = sp.merge(sp.pieces[cur].ids, ins[:run])
		ins = ins[run:]
	}

	// 3 and 4. Normalize and lay out the directory. Two untouched blocks
	// that were neighbours before already satisfy the invariant; every other
	// pair — one member touched, or an emptied block gone from between them
	// — is examined.
	size := 0
	for _, p := range sp.pieces {
		if p.ids == nil {
			size += p.hi - p.lo
		} else {
			size += (len(p.ids) + BlockSize - 1) / BlockSize
		}
	}
	if size == 0 {
		return nil, nil
	}
	sp.dir, sp.prev = make([]*block, 0, size), -1
	for _, p := range sp.pieces {
		if p.ids == nil {
			for k := p.lo; k < p.hi; k++ {
				if len(sp.pend) == 0 && k == sp.prev+1 {
					// Neighbours before, so the rest of the run is shared as it is.
					sp.dir = append(sp.dir, old.blocks[k:p.hi]...)
					sp.prev = p.hi - 1
					break
				}
				sp.keep(k)
			}
			continue
		}
		ids := p.ids
		for parts := (len(ids) + BlockSize - 1) / BlockSize; parts > 0; parts-- {
			n := (len(ids) + parts - 1) / parts
			sp.write(ids[:n])
			ids = ids[n:]
		}
	}
	sp.flush()
	sp.st.BlocksShared += len(sp.dir) - sp.written
	return newList(sp.dir), nil
}

// lookup returns the index in edited of old block b, or where it would go.
func (sp *splicer) lookup(b int) int {
	return sort.Search(len(sp.edited), func(i int) bool { return sp.edited[i].lo >= b })
}

// edit returns the index in edited of old block b, decoding it first if no
// edit has yet.
func (sp *splicer) edit(b int) int {
	i := sp.lookup(b)
	if i == len(sp.edited) || sp.edited[i].lo != b {
		sp.edited = slices.Insert(sp.edited, i, piece{lo: b, hi: b + 1, ids: sp.decode(b)})
	}
	return i
}

// decode appends old block b to the arena and returns it, its capacity
// clipped to its length.
func (sp *splicer) decode(b int) []core.ID {
	start := len(sp.arena)
	sp.arena = sp.old.AppendBlock(b, sp.arena)
	return sp.arena[start:len(sp.arena):len(sp.arena)]
}

// merge appends the merge of ids and add, both in rn's document order, to
// the arena and returns it. Each element of add is placed by binary search,
// so a short add costs a few comparisons, not one per element of ids.
func (sp *splicer) merge(ids, add []core.ID) []core.ID {
	start := len(sp.arena)
	out := sp.arena
	for _, x := range add {
		p := sort.Search(len(ids), func(k int) bool { return sp.rn.CompareOrderID(ids[k], x) > 0 })
		out = append(out, ids[:p]...)
		out = append(out, x)
		ids = ids[p:]
	}
	sp.arena = append(out, ids...)
	return sp.arena[start:len(sp.arena):len(sp.arena)]
}

// keep emits old block k: shared, unless it coalesces with what precedes
// it — the pending block, or a shared block it did not neighbour before.
func (sp *splicer) keep(k int) {
	n := int(sp.old.blocks[k].N)
	switch {
	case len(sp.pend) > 0 && len(sp.pend)+n <= BlockSize:
		sp.pend = sp.old.AppendBlock(k, sp.pend)
	case len(sp.pend) == 0 && len(sp.dir) > 0 && k != sp.prev+1 && int(sp.old.blocks[sp.prev].N)+n <= BlockSize:
		sp.dir = sp.dir[:len(sp.dir)-1]
		sp.pend = sp.old.AppendBlock(sp.prev, sp.pend)
		sp.pend = sp.old.AppendBlock(k, sp.pend)
	default:
		sp.flush()
		sp.dir = append(sp.dir, sp.old.blocks[k])
		sp.prev = k
	}
}

// write emits a touched block's postings, coalesced with what precedes it
// when the pair fits in one block.
func (sp *splicer) write(ids []core.ID) {
	switch {
	case len(sp.pend) > 0 && len(sp.pend)+len(ids) <= BlockSize:
	case len(sp.pend) == 0 && len(sp.dir) > 0 && int(sp.old.blocks[sp.prev].N)+len(ids) <= BlockSize:
		sp.dir = sp.dir[:len(sp.dir)-1]
		sp.pend = sp.old.AppendBlock(sp.prev, sp.pend)
	default:
		sp.flush()
	}
	sp.pend = append(sp.pend, ids...)
}

// flush encodes the pending block, if any, as the directory's next block.
func (sp *splicer) flush() {
	if len(sp.pend) == 0 {
		return
	}
	var blk *block
	blk, sp.enc = encodeBlock(sp.pend, sp.enc[:0])
	sp.dir = append(sp.dir, blk)
	sp.written++
	sp.st.BlocksReencoded++
	sp.st.PostingsReencoded += len(sp.pend)
	sp.pend = sp.pend[:0]
}

// encodeBlock encodes ids, at most BlockSize of them in document order, as a
// new block, using scratch as the encode buffer; it returns the
// block and the grown scratch.
func encodeBlock(ids []core.ID, scratch []byte) (*block, []byte) {
	blk := &block{Skip: Skip{
		First: ids[0], Last: ids[len(ids)-1],
		MinGlobal: ids[0].Global, MaxGlobal: ids[0].Global,
		N: uint16(len(ids)),
	}}
	for i := 1; i < len(ids); i++ {
		scratch = core.AppendIDDelta(scratch, ids[i-1], ids[i])
		if g := ids[i].Global; g < blk.MinGlobal {
			blk.MinGlobal = g
		} else if g > blk.MaxGlobal {
			blk.MaxGlobal = g
		}
	}
	blk.End = uint32(len(scratch))
	if len(scratch) > 0 {
		blk.data = append(make([]byte, 0, len(scratch)), scratch...)
	}
	return blk, scratch
}
