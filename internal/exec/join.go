package exec

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/index"
)

// The parallel forms of the structural joins, over index.Postings views.
// Block-compressed descendants are sharded by block boundaries
// (shardBlocks) so every worker gets whole blocks and the same skip-table
// galloping the serial kernels use; slice-backed descendants (intermediate
// pipeline results) are sharded by frame area (shardRanges) as before. Each
// shard runs the matching index kernel against one shared read-only probe,
// and shard outputs concatenate in shard order — which is document order,
// because the inputs are document-ordered and every kernel preserves input
// order. Below the crossover (or in Serial mode) each operation delegates
// to the one-shot index.*Postings form, so P=1 costs one extra call frame —
// unless the executor is observed or metered, in which case block-backed
// inputs run the gather path with a single shard so the seek kernels'
// block statistics and budget charges surface (identical output; see
// metrics.go).
//
// Budget enforcement (WithMeter) follows one pattern per operation: the
// probe side is charged as postings before it is materialized; block-backed
// descendant sides are charged inside forEachRun, per admitted run, before
// any decode; slice-backed shards are charged per shard; and every kernel's
// output rows are charged as results. A refused charge stops each shard at
// its next charge point, so a query over budget terminates inside the join
// kernels — the partial output is discarded by the planner, which surfaces
// the meter's sentinel error instead.

// serialPairs wraps a one-shot serial kernel in the operation's budget
// charges: work postings in, output rows out. Unmetered executors pass
// through with two nil checks.
func (e *Executor) serialPairs(work int, f func() []index.PairID) []index.PairID {
	if !e.meter.ChargePostings(work) {
		return nil
	}
	out := f()
	e.meter.ChargeResults(len(out))
	return out
}

// serialIDs is serialPairs for identifier outputs.
func (e *Executor) serialIDs(work int, f func() []core.ID) []core.ID {
	if !e.meter.ChargePostings(work) {
		return nil
	}
	out := f()
	e.meter.ChargeResults(len(out))
	return out
}

// UpwardJoin is index.UpwardJoinPostings sharded over descs: every pair
// (a, d) with a ∈ ancs a proper ancestor of d ∈ descs, in document order of
// the descendant.
func (e *Executor) UpwardJoin(n *core.Numbering, ancs, descs index.Postings) []index.PairID {
	if !e.instrumented() {
		return e.upwardJoin(n, ancs, descs)
	}
	start := time.Now()
	out := e.upwardJoin(n, ancs, descs)
	e.noteOp(start)
	return out
}

func (e *Executor) upwardJoin(n *core.Numbering, ancs, descs index.Postings) []index.PairID {
	p := e.workersFor(ancs.Len() + descs.Len())
	if pl := descs.List(); pl != nil {
		if (p <= 1 || pl.NumBlocks() <= 1) && e.plain() {
			return index.UpwardJoinPostings(n, ancs, descs)
		}
		if !e.meter.ChargePostings(ancs.Len()) {
			return nil
		}
		pr := index.MakeProbe(ancs)
		defer pr.Release()
		return gatherPairs(e, shardBlocks(pl.NumBlocks(), p), func(r [2]int, buf []index.PairID) []index.PairID {
			bs := e.blockScratch()
			before := len(buf)
			buf = index.AppendUpwardJoinBlocks(n, pr, pl, r[0], r[1], bs, buf)
			e.meter.ChargeResults(len(buf) - before)
			e.noteBlockStats(&bs.Stats)
			putBlockScratch(bs)
			return buf
		})
	}
	ids := descs.Slice()
	var ranges [][2]int
	if p > 1 {
		ranges = shardRanges(ids, p)
	}
	if len(ranges) <= 1 {
		return e.serialPairs(ancs.Len()+len(ids), func() []index.PairID {
			return index.UpwardJoinPostings(n, ancs, descs)
		})
	}
	if !e.meter.ChargePostings(ancs.Len()) {
		return nil
	}
	pr := index.MakeProbe(ancs)
	defer pr.Release()
	return gatherPairs(e, ranges, func(r [2]int, buf []index.PairID) []index.PairID {
		if !e.meter.ChargePostings(r[1] - r[0]) {
			return buf
		}
		before := len(buf)
		buf = index.AppendUpwardJoinRUID(n, &pr.Set, ids[r[0]:r[1]], buf)
		e.meter.ChargeResults(len(buf) - before)
		return buf
	})
}

// MergeJoin is index.MergeJoinPostings sharded over descs. Each shard (and,
// inside a shard, each decoded candidate run) seeds the open-ancestor stack
// with the ancs members lying on its first descendant's ancestor chain
// (outermost first) — exactly the serial algorithm's stack state at that
// descendant — and starts candidate admission at the first ancestor not
// ordered before that descendant, found by binary search. No state crosses
// shard boundaries, so the concatenated output is identical to the serial
// one. The ancestor side is materialized either way: the merge kernel walks
// it sequentially.
func (e *Executor) MergeJoin(n *core.Numbering, ancs, descs index.Postings) []index.PairID {
	if !e.instrumented() {
		return e.mergeJoin(n, ancs, descs)
	}
	start := time.Now()
	out := e.mergeJoin(n, ancs, descs)
	e.noteOp(start)
	return out
}

func (e *Executor) mergeJoin(n *core.Numbering, ancs, descs index.Postings) []index.PairID {
	p := e.workersFor(ancs.Len() + descs.Len())
	if pl := descs.List(); pl != nil {
		if (p <= 1 || pl.NumBlocks() <= 1) && e.plain() {
			return index.MergeJoinPostings(n, ancs, descs)
		}
		if !e.meter.ChargePostings(ancs.Len()) {
			return nil
		}
		ancIDs := ancs.Materialize()
		pr := index.MakeProbe(index.SlicePostings(ancIDs))
		defer pr.Release()
		return gatherPairs(e, shardBlocks(pl.NumBlocks(), p), func(r [2]int, buf []index.PairID) []index.PairID {
			sc := getMergeScratch()
			bs := e.blockScratch()
			before := len(buf)
			buf = index.AppendMergeJoinBlocks(n, ancIDs, pr, pl, r[0], r[1], sc, bs, buf)
			e.meter.ChargeResults(len(buf) - before)
			e.noteBlockStats(&bs.Stats)
			putBlockScratch(bs)
			putMergeScratch(sc)
			return buf
		})
	}
	descIDs := descs.Slice()
	var ranges [][2]int
	if p > 1 {
		ranges = shardRanges(descIDs, p)
	}
	if len(ranges) <= 1 {
		return e.serialPairs(ancs.Len()+len(descIDs), func() []index.PairID {
			return index.MergeJoinPostings(n, ancs, descs)
		})
	}
	if !e.meter.ChargePostings(ancs.Len()) {
		return nil
	}
	ancIDs := ancs.Materialize()
	pr := index.MakeProbe(index.SlicePostings(ancIDs))
	defer pr.Release()
	return gatherPairs(e, ranges, func(r [2]int, buf []index.PairID) []index.PairID {
		if !e.meter.ChargePostings(r[1] - r[0]) {
			return buf
		}
		d0 := descIDs[r[0]]
		start := sort.Search(len(ancIDs), func(j int) bool {
			return n.CompareOrderID(ancIDs[j], d0) >= 0
		})
		sc := getMergeScratch()
		chainBuf, seedBuf := getIDBuf(), getIDBuf()
		chain := n.AppendAncestorChainID(*chainBuf, d0)
		// The chain runs nearest-first and ends at the root; the seed wants
		// the subset present in ancs, outermost first. chain[0] is d0 itself.
		seed := *seedBuf
		for j := len(chain) - 1; j >= 1; j-- {
			if pr.Set.Has(chain[j]) {
				seed = append(seed, chain[j])
			}
		}
		before := len(buf)
		buf = index.AppendMergeJoinRUID(n, ancIDs[start:], descIDs[r[0]:r[1]], seed, sc, buf)
		e.meter.ChargeResults(len(buf) - before)
		*chainBuf, *seedBuf = chain, seed
		putIDBuf(chainBuf)
		putIDBuf(seedBuf)
		putMergeScratch(sc)
		return buf
	})
}

// UpwardSemiJoin is index.UpwardSemiJoinPostings sharded over descs: the
// members of descs having at least one proper ancestor in ancs, in input
// order.
func (e *Executor) UpwardSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	if !e.instrumented() {
		return e.upwardSemiJoin(n, ancs, descs)
	}
	start := time.Now()
	out := e.upwardSemiJoin(n, ancs, descs)
	e.noteOp(start)
	return out
}

func (e *Executor) upwardSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	p := e.workersFor(ancs.Len() + descs.Len())
	if pl := descs.List(); pl != nil {
		if (p <= 1 || pl.NumBlocks() <= 1) && e.plain() {
			return index.UpwardSemiJoinPostings(n, ancs, descs)
		}
		if !e.meter.ChargePostings(ancs.Len()) {
			return nil
		}
		pr := index.MakeProbe(ancs)
		defer pr.Release()
		return gatherIDs(e, shardBlocks(pl.NumBlocks(), p), func(r [2]int, buf []core.ID) []core.ID {
			bs := e.blockScratch()
			before := len(buf)
			buf = index.AppendUpwardSemiJoinBlocks(n, pr, pl, r[0], r[1], bs, buf)
			e.meter.ChargeResults(len(buf) - before)
			e.noteBlockStats(&bs.Stats)
			putBlockScratch(bs)
			return buf
		})
	}
	ids := descs.Slice()
	var ranges [][2]int
	if p > 1 {
		ranges = shardRanges(ids, p)
	}
	if len(ranges) <= 1 {
		return e.serialIDs(ancs.Len()+len(ids), func() []core.ID {
			return index.UpwardSemiJoinPostings(n, ancs, descs)
		})
	}
	if !e.meter.ChargePostings(ancs.Len()) {
		return nil
	}
	pr := index.MakeProbe(ancs)
	defer pr.Release()
	return gatherIDs(e, ranges, func(r [2]int, buf []core.ID) []core.ID {
		if !e.meter.ChargePostings(r[1] - r[0]) {
			return buf
		}
		before := len(buf)
		buf = index.AppendUpwardSemiJoinRUID(n, &pr.Set, ids[r[0]:r[1]], buf)
		e.meter.ChargeResults(len(buf) - before)
		return buf
	})
}

// ParentSemiJoin is index.ParentSemiJoinPostings sharded over descs: the
// members of descs whose direct parent is in ancs, in input order.
func (e *Executor) ParentSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	if !e.instrumented() {
		return e.parentSemiJoin(n, ancs, descs)
	}
	start := time.Now()
	out := e.parentSemiJoin(n, ancs, descs)
	e.noteOp(start)
	return out
}

func (e *Executor) parentSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	p := e.workersFor(ancs.Len() + descs.Len())
	if pl := descs.List(); pl != nil {
		if (p <= 1 || pl.NumBlocks() <= 1) && e.plain() {
			return index.ParentSemiJoinPostings(n, ancs, descs)
		}
		if !e.meter.ChargePostings(ancs.Len()) {
			return nil
		}
		pr := index.MakeProbe(ancs)
		defer pr.Release()
		return gatherIDs(e, shardBlocks(pl.NumBlocks(), p), func(r [2]int, buf []core.ID) []core.ID {
			bs := e.blockScratch()
			before := len(buf)
			buf = index.AppendParentSemiJoinBlocks(n, pr, pl, r[0], r[1], bs, buf)
			e.meter.ChargeResults(len(buf) - before)
			e.noteBlockStats(&bs.Stats)
			putBlockScratch(bs)
			return buf
		})
	}
	ids := descs.Slice()
	var ranges [][2]int
	if p > 1 {
		ranges = shardRanges(ids, p)
	}
	if len(ranges) <= 1 {
		return e.serialIDs(ancs.Len()+len(ids), func() []core.ID {
			return index.ParentSemiJoinPostings(n, ancs, descs)
		})
	}
	if !e.meter.ChargePostings(ancs.Len()) {
		return nil
	}
	pr := index.MakeProbe(ancs)
	defer pr.Release()
	return gatherIDs(e, ranges, func(r [2]int, buf []core.ID) []core.ID {
		if !e.meter.ChargePostings(r[1] - r[0]) {
			return buf
		}
		before := len(buf)
		buf = index.AppendParentSemiJoinRUID(n, &pr.Set, ids[r[0]:r[1]], buf)
		e.meter.ChargeResults(len(buf) - before)
		return buf
	})
}

// AncestorSemiJoin is index.AncestorSemiJoinPostings with the probing half
// sharded over descs: the members of ancs having at least one proper
// descendant in descs, in ancs order. Shards accumulate private hit sets;
// ancs is then filtered through them serially, which restores order without
// a sort.
func (e *Executor) AncestorSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	if !e.instrumented() {
		return e.ancestorSemiJoin(n, ancs, descs)
	}
	start := time.Now()
	out := e.ancestorSemiJoin(n, ancs, descs)
	e.noteOp(start)
	return out
}

func (e *Executor) ancestorSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return e.hitSemiJoin(ancs, descs,
		func() []core.ID { return index.AncestorSemiJoinPostings(n, ancs, descs) },
		func(pr *index.Probe, run []core.ID, hit *index.IDSet) {
			index.CollectAncestorHitsRUID(n, &pr.Set, run, hit)
		},
		func(pr *index.Probe, pl *index.PostingList, lo, hi int, bs *index.BlockScratch, hit *index.IDSet) {
			index.CollectAncestorHitsBlocks(n, pr, pl, lo, hi, bs, hit)
		})
}

// ChildSemiJoin is index.ChildSemiJoinPostings with the probing half
// sharded over descs: the members of ancs having at least one direct child
// in descs, in ancs order.
func (e *Executor) ChildSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	if !e.instrumented() {
		return e.childSemiJoin(n, ancs, descs)
	}
	start := time.Now()
	out := e.childSemiJoin(n, ancs, descs)
	e.noteOp(start)
	return out
}

func (e *Executor) childSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return e.hitSemiJoin(ancs, descs,
		func() []core.ID { return index.ChildSemiJoinPostings(n, ancs, descs) },
		func(pr *index.Probe, run []core.ID, hit *index.IDSet) {
			index.CollectChildHitsRUID(n, &pr.Set, run, hit)
		},
		func(pr *index.Probe, pl *index.PostingList, lo, hi int, bs *index.BlockScratch, hit *index.IDSet) {
			index.CollectChildHitsBlocks(n, pr, pl, lo, hi, bs, hit)
		})
}

func (e *Executor) hitSemiJoin(
	ancs, descs index.Postings,
	serial func() []core.ID,
	collectRun func(pr *index.Probe, run []core.ID, hit *index.IDSet),
	collectBlocks func(pr *index.Probe, pl *index.PostingList, lo, hi int, bs *index.BlockScratch, hit *index.IDSet),
) []core.ID {
	p := e.workersFor(ancs.Len() + descs.Len())
	var ranges [][2]int
	var descIDs []core.ID
	pl := descs.List()
	if pl != nil {
		if (p <= 1 || pl.NumBlocks() <= 1) && e.plain() {
			return serial()
		}
		ranges = shardBlocks(pl.NumBlocks(), p)
	} else {
		descIDs = descs.Slice()
		if p > 1 {
			ranges = shardRanges(descIDs, p)
		}
		if len(ranges) <= 1 {
			return e.serialIDs(ancs.Len()+len(descIDs), serial)
		}
	}
	if !e.meter.ChargePostings(ancs.Len()) {
		return nil
	}
	pr := index.MakeProbe(ancs)
	defer pr.Release()
	hits := make([]*index.IDSet, len(ranges))
	perUnit := 1 // descendants per unit of a range: ids, or whole blocks
	if pl != nil {
		perUnit = index.BlockSize
	}
	clock := e.newShardClock(len(ranges))
	e.run(len(ranges), func(s int) {
		t := clock.start()
		lo, hi := ranges[s][0], ranges[s][1]
		// A hit is a probe member, and a shard of m descendants seldom hits
		// more than m of them; a shard that does grows its table.
		hit := index.AcquireIDSet(min(ancs.Len(), (hi-lo)*perUnit))
		if pl != nil {
			bs := e.blockScratch()
			collectBlocks(pr, pl, lo, hi, bs, hit)
			e.noteBlockStats(&bs.Stats)
			putBlockScratch(bs)
		} else if e.meter.ChargePostings(hi - lo) {
			collectRun(pr, descIDs[lo:hi], hit)
		}
		hits[s] = hit
		clock.stop(s, t)
	})
	clock.note(e)
	// Two shards can hit the same ancestor, so the sum bounds the output.
	total := 0
	for _, h := range hits {
		total += h.Len()
	}
	out := index.AppendHitMembersPostings(ancs, hits, make([]core.ID, 0, min(ancs.Len(), total)))
	e.meter.ChargeResults(len(out))
	for _, h := range hits {
		h.Release()
	}
	return out
}

// PathQuery is NameIndex.PathQueryRUID with every step's semi-join run
// through the executor: postings of names[0] filtered down the path by
// parallel upward semi-joins. The index's block-compressed postings are
// consumed as Postings views, so each step decodes only candidate blocks.
// Returns nil for non-ruid indexes, like the serial form.
func (e *Executor) PathQuery(ix *index.NameIndex, names ...string) []core.ID {
	n := ix.RUID()
	if n == nil || len(names) == 0 {
		return nil
	}
	cur := ix.Postings(names[0])
	if cur.Len() == 0 {
		return nil
	}
	for step := 1; step < len(names); step++ {
		next := e.UpwardSemiJoin(n, cur, ix.Postings(names[step]))
		if len(next) == 0 {
			return nil
		}
		cur = index.SlicePostings(next)
	}
	return cur.Materialize()
}

// gatherPairs runs kernel over every range concurrently into pooled
// buffers, then concatenates the shard outputs in range order into one
// exact-size slice.
func gatherPairs(e *Executor, ranges [][2]int, kernel func(r [2]int, buf []index.PairID) []index.PairID) []index.PairID {
	bufs := make([]*[]index.PairID, len(ranges))
	clock := e.newShardClock(len(ranges))
	e.run(len(ranges), func(s int) {
		t := clock.start()
		b := getPairBuf()
		*b = kernel(ranges[s], *b)
		bufs[s] = b
		clock.stop(s, t)
	})
	clock.note(e)
	total := 0
	for _, b := range bufs {
		total += len(*b)
	}
	out := make([]index.PairID, 0, total)
	for _, b := range bufs {
		out = append(out, *b...)
		putPairBuf(b)
	}
	return out
}

// gatherIDs is gatherPairs for identifier outputs.
func gatherIDs(e *Executor, ranges [][2]int, kernel func(r [2]int, buf []core.ID) []core.ID) []core.ID {
	bufs := make([]*[]core.ID, len(ranges))
	clock := e.newShardClock(len(ranges))
	e.run(len(ranges), func(s int) {
		t := clock.start()
		b := getIDBuf()
		*b = kernel(ranges[s], *b)
		bufs[s] = b
		clock.stop(s, t)
	})
	clock.note(e)
	total := 0
	for _, b := range bufs {
		total += len(*b)
	}
	out := make([]core.ID, 0, total)
	for _, b := range bufs {
		out = append(out, *b...)
		putIDBuf(b)
	}
	return out
}
