package index

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
)

// Incremental maintenance for ruid-backed indexes: epoch publication calls
// ApplyDelta with the scope of one batch of structural updates instead of
// re-walking the document with Build. Sharing with the previous epoch's
// index happens at two granularities, honoring the facade's immutability
// invariant (neither index is ever mutated): an untouched name shares its
// whole *PostingList, and inside a touched name every block the edits miss
// is copied byte for byte — only the blocks that hold an edited posting are
// decoded and re-encoded.

// ErrNotRUID reports an ApplyDelta on a generic (boxed) index, which has no
// incremental path.
var ErrNotRUID = errors.New("index: ApplyDelta requires a ruid-backed index")

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
	BlocksShared      int // blocks of touched names copied verbatim from the previous epoch
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
	if ix.ruid == nil {
		return nil, st, ErrNotRUID
	}
	out := &NameIndex{s: rn, ruid: rn, ruidByName: make(map[string]*PostingList, len(ix.ruidByName)+len(edits))}
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

// seg is one block of a list under splice: block blk of the previous list,
// still encoded, while ids is nil; a decoded (touched) block once it is not.
type seg struct {
	blk int
	ids []core.ID
}

// splice derives the next epoch's list of one name from the previous one.
//
//  1. Each relabeled or removed identifier is located by binary search over
//     the skip table in the PREVIOUS numbering's document order (pn) — the
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
//  4. Touched blocks are re-encoded; every run of untouched blocks is
//     copied as one byte range, its Skip entries shifted.
//
// The output is resident whether or not old is paged. A nil result means
// the name has no postings left.
func splice(old *PostingList, pn, rn *core.Numbering, nd *NameDelta, st *DeltaStats) (*PostingList, error) {
	segs := make([]seg, old.NumBlocks())
	for b := range segs {
		segs[b].blk = b
	}
	decode := func(s *seg) error {
		if s.ids != nil {
			return nil
		}
		ids, err := old.TryAppendBlock(s.blk, make([]core.ID, 0, old.skips[s.blk].N))
		s.ids = ids
		return err
	}
	count := func(s *seg) int {
		if s.ids != nil {
			return len(s.ids)
		}
		return int(old.skips[s.blk].N)
	}

	// 1. Every target is found before any is patched, so the lookups read
	// the blocks as the previous epoch encoded them and a chain a→b, b→c
	// inside one block cannot capture the wrong entry.
	type hit struct{ b, pos int }
	indexOf := func(b int, id core.ID) int {
		for pos, x := range segs[b].ids {
			if x == id {
				return pos
			}
		}
		return -1
	}
	last := -1 // block of the previous hit: one area's edits are neighbours
	find := func(id core.ID) (hit, error) {
		if last >= 0 {
			if pos := indexOf(last, id); pos >= 0 {
				return hit{last, pos}, nil
			}
		}
		// The order comparison is defined on identifiers of pn only.
		if _, ok := pn.NodeOfID(id); ok {
			b := sort.Search(len(segs), func(b int) bool {
				return pn.CompareOrderID(old.skips[b].Last, id) >= 0
			})
			if b < len(segs) {
				if err := decode(&segs[b]); err != nil {
					return hit{}, err
				}
				if pos := indexOf(b, id); pos >= 0 {
					last = b
					return hit{b, pos}, nil
				}
			}
		}
		return hit{}, fmt.Errorf("edit of %v, which the previous list does not hold", id)
	}
	relabels := make([]hit, len(nd.Relabeled))
	for i, r := range nd.Relabeled {
		h, err := find(r.Old)
		if err != nil {
			return nil, err
		}
		relabels[i] = h
	}
	drops := make([]hit, len(nd.Removed))
	for i, id := range nd.Removed {
		h, err := find(id)
		if err != nil {
			return nil, err
		}
		drops[i] = h
	}
	for i, h := range relabels {
		segs[h.b].ids[h.pos] = nd.Relabeled[i].New
	}
	// Back to front, so a drop does not shift the positions still to go.
	sort.Slice(drops, func(i, j int) bool {
		if drops[i].b != drops[j].b {
			return drops[i].b > drops[j].b
		}
		return drops[i].pos > drops[j].pos
	})
	for _, h := range drops {
		ids := segs[h.b].ids
		segs[h.b].ids = append(ids[:h.pos], ids[h.pos+1:]...)
	}
	if len(drops) > 0 {
		kept := segs[:0]
		for _, s := range segs {
			if count(&s) > 0 {
				kept = append(kept, s)
			}
		}
		segs = kept
	}

	// 2. Inserted identifiers, in the next order; a run bound for one block
	// is merged into it in one pass.
	ins := nd.Inserted
	sort.Slice(ins, func(i, j int) bool { return rn.CompareOrderID(ins[i], ins[j]) < 0 })
	if len(segs) == 0 && len(ins) > 0 {
		segs = append(segs, seg{ids: ins})
		ins = nil
	}
	first := func(s *seg) core.ID {
		if s.ids != nil {
			return s.ids[0]
		}
		return old.skips[s.blk].First
	}
	for t := 0; len(ins) > 0; {
		rest := segs[t+1:]
		t += sort.Search(len(rest), func(k int) bool {
			return rn.CompareOrderID(first(&rest[k]), ins[0]) > 0
		})
		run := 1
		for run < len(ins) && (t+1 == len(segs) || rn.CompareOrderID(first(&segs[t+1]), ins[run]) > 0) {
			run++
		}
		if err := decode(&segs[t]); err != nil {
			return nil, err
		}
		segs[t].ids = mergeOrdered(rn, segs[t].ids, ins[:run])
		ins = ins[run:]
	}

	// 3. Normalize. Two untouched blocks that were neighbours before already
	// satisfy the invariant; every other pair — one member touched, or an
	// emptied block gone from between them — is examined.
	norm := make([]seg, 0, len(segs)+1)
	emit := func(s seg) error {
		if len(norm) > 0 {
			p := &norm[len(norm)-1]
			paired := p.ids == nil && s.ids == nil && s.blk == p.blk+1
			if !paired && count(p)+count(&s) <= BlockSize {
				if err := decode(p); err != nil {
					return err
				}
				if err := decode(&s); err != nil {
					return err
				}
				p.ids = append(p.ids, s.ids...)
				return nil
			}
		}
		norm = append(norm, s)
		return nil
	}
	for _, s := range segs {
		parts := (len(s.ids) + BlockSize - 1) / BlockSize
		if parts < 2 {
			if err := emit(s); err != nil {
				return nil, err
			}
			continue
		}
		ids := s.ids
		for ; parts > 0; parts-- {
			n := (len(ids) + parts - 1) / parts
			// The capacity is clipped so that a coalesce appending to this part
			// cannot write into the next one.
			if err := emit(seg{ids: ids[:n:n]}); err != nil {
				return nil, err
			}
			ids = ids[n:]
		}
	}
	if len(norm) == 0 {
		return nil, nil
	}

	// 4. Encode.
	out := &PostingList{
		skips: make([]Skip, 0, len(norm)),
		data:  make([]byte, 0, old.DataLen()+4*len(nd.Inserted)),
	}
	for i := 0; i < len(norm); {
		s := &norm[i]
		if s.ids != nil {
			out.appendBlock(s.ids)
			st.PostingsReencoded += len(s.ids)
			st.BlocksReencoded++
			i++
			continue
		}
		j := i + 1
		for j < len(norm) && norm[j].ids == nil && norm[j].blk == norm[j-1].blk+1 {
			j++
		}
		run := old.skips[s.blk : norm[j-1].blk+1]
		shift := uint32(len(out.data)) - run[0].Off
		var err error
		if out.data, err = old.appendDataRange(out.data, run[0].Off, run[len(run)-1].End); err != nil {
			return nil, err
		}
		for _, sk := range run {
			sk.Off += shift
			sk.End += shift
			out.skips = append(out.skips, sk)
			out.n += int(sk.N)
		}
		st.BlocksShared += len(run)
		i = j
	}
	return out, nil
}

// mergeOrdered returns the merge of ids and add, both in rn's document
// order. Each element of add is placed by binary search, so a short add
// costs a few comparisons, not one per element of ids.
func mergeOrdered(rn *core.Numbering, ids, add []core.ID) []core.ID {
	out := make([]core.ID, 0, len(ids)+len(add))
	for _, x := range add {
		p := sort.Search(len(ids), func(k int) bool { return rn.CompareOrderID(ids[k], x) > 0 })
		out = append(out, ids[:p]...)
		out = append(out, x)
		ids = ids[p:]
	}
	return append(out, ids...)
}

// appendBlock encodes ids, at most BlockSize of them in document order, as
// the next block of a list under construction.
func (pl *PostingList) appendBlock(ids []core.ID) {
	sk := Skip{
		First: ids[0], Last: ids[len(ids)-1],
		MinGlobal: ids[0].Global, MaxGlobal: ids[0].Global,
		Off: uint32(len(pl.data)), N: uint16(len(ids)),
	}
	for i := 1; i < len(ids); i++ {
		pl.data = core.AppendIDDelta(pl.data, ids[i-1], ids[i])
		if g := ids[i].Global; g < sk.MinGlobal {
			sk.MinGlobal = g
		} else if g > sk.MaxGlobal {
			sk.MaxGlobal = g
		}
	}
	sk.End = uint32(len(pl.data))
	pl.skips = append(pl.skips, sk)
	pl.n += len(ids)
}

// appendDataRange appends bytes [off, end) of the list's delta region to
// dst, faulting them through the source when the list is paged.
func (pl *PostingList) appendDataRange(dst []byte, off, end uint32) ([]byte, error) {
	if pl.src != nil {
		return pl.src.ReadRange(off, end, dst)
	}
	return append(dst, pl.data[off:end]...), nil
}
