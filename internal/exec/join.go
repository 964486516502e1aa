package exec

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/index"
)

// The six structural joins over index.Postings views. Every operation, in
// every mode and on every executor — plain, observed or metered — takes the
// same path: the descendant side is cut into unit ranges (shardUnits), each
// range is scanned by index.ForEachRun against one shared read-only probe,
// the operation's run kernel turns every admitted run into rows, and shard
// outputs concatenate in range order — which is document order, because the
// inputs are document-ordered and every kernel preserves input order. Serial
// mode (and an Auto operation below the crossover) is the same path with one
// range; the index.*Postings one-shots are the reference the tests compare
// it against, not a path it delegates to.
//
// Budget enforcement (WithMeter) has one pattern: the probe side is charged
// as postings before it is built, the descendant side is charged inside
// index.ForEachRun — per admitted run, before any decode, whatever the view
// — and output rows are charged as results. A refused charge stops each
// shard at its next charge point, so a query over budget terminates inside
// the join kernels — the partial output is discarded by the planner, which
// surfaces the meter's sentinel error instead.

// op is one public operation in flight: what the sharding skeleton sets up
// in begin, fans out in shards and tears down in end.
type op struct {
	e      *Executor
	n      *core.Numbering
	descs  index.Postings
	pr     *index.Probe
	ranges [][2]int
	start  time.Time
}

// begin resolves the worker policy, cuts descs into unit ranges, charges the
// probe side and builds the probe. It returns nil when the budget refuses
// the probe side; otherwise the caller must call end.
func (e *Executor) begin(n *core.Numbering, ancs, descs index.Postings) *op {
	o := &op{e: e, n: n, descs: descs, start: e.opStart()}
	if !e.meter.ChargePostings(ancs.Len()) {
		e.noteOp(o.start)
		return nil
	}
	o.ranges = shardUnits(descs, e.workersFor(ancs.Len()+descs.Len()))
	o.pr = index.MakeProbe(ancs)
	return o
}

// shards scans every range on the pool. shard(s, bs) prepares range s — bs is
// the worker's pooled scratch, wired to the meter — and returns what to do
// with each of its admitted runs.
func (o *op) shards(shard func(s int, bs *index.BlockScratch) func(run []core.ID)) {
	e := o.e
	clock := e.newShardClock(len(o.ranges))
	e.run(len(o.ranges), func(s int) {
		t := clock.start()
		bs := e.blockScratch()
		index.ForEachRun(o.n, o.pr, o.descs, o.ranges[s][0], o.ranges[s][1], bs, shard(s, bs))
		e.noteBlockStats(&bs.Stats)
		putBlockScratch(bs)
		clock.stop(s, t)
	})
	clock.note(e)
}

// end releases the probe and records the operation.
func (o *op) end() {
	o.pr.Release()
	o.e.noteOp(o.start)
}

// kernel is one join's run kernel bound to its numbering: it appends the
// rows run produces against the probe to buf.
type kernel[T any] func(pr *index.Probe, bs *index.BlockScratch, run []core.ID, buf []T) []T

// gather is the sharding driver of the four joins whose rows follow the
// descendant side: every shard appends into a pooled buffer, and the buffers
// are copied in range order into one exact-size result.
func gather[T core.ID | index.PairID](e *Executor, n *core.Numbering, ancs, descs index.Postings, pool *sync.Pool, k kernel[T]) []T {
	o := e.begin(n, ancs, descs)
	if o == nil {
		return nil
	}
	defer o.end()
	bufs := make([]*[]T, len(o.ranges))
	o.shards(func(s int, bs *index.BlockScratch) func(run []core.ID) {
		poolGets.Add(1)
		b := pool.Get().(*[]T)
		bufs[s] = b
		return func(run []core.ID) {
			before := len(*b)
			*b = k(o.pr, bs, run, *b)
			e.meter.ChargeResults(len(*b) - before)
		}
	})
	total := 0
	for _, b := range bufs {
		total += len(*b)
	}
	out := make([]T, 0, total)
	for _, b := range bufs {
		out = append(out, *b...)
		*b = (*b)[:0]
		pool.Put(b)
	}
	return out
}

// hitSemiJoin is the driver of the two bottom-up semi-joins, whose rows
// follow the ancestor side: shards accumulate private hit sets, and the
// ancestor side is then filtered through them serially, which restores
// order without a sort.
func (e *Executor) hitSemiJoin(n *core.Numbering, ancs, descs index.Postings, collect func(n *core.Numbering, set *index.IDSet, run []core.ID, hit *index.IDSet)) []core.ID {
	o := e.begin(n, ancs, descs)
	if o == nil {
		return nil
	}
	defer o.end()
	hits := make([]*index.IDSet, len(o.ranges))
	// A hit is a probe member, and a shard of m descendants seldom hits more
	// than m of them; a shard that does grows its table.
	sized := min(ancs.Len(), descs.Len()/len(hits)+1)
	o.shards(func(s int, _ *index.BlockScratch) func(run []core.ID) {
		hit := index.AcquireIDSet(sized)
		hits[s] = hit
		return func(run []core.ID) { collect(n, &o.pr.Set, run, hit) }
	})
	// Two shards can hit the same ancestor, so the sum bounds the output.
	total := 0
	for _, h := range hits {
		total += h.Len()
	}
	out := index.AppendHitMembersPostings(o.pr, hits, make([]core.ID, 0, min(ancs.Len(), total)))
	e.meter.ChargeResults(len(out))
	for _, h := range hits {
		h.Release()
	}
	return out
}

// UpwardJoin is index.UpwardJoinPostings sharded over descs: every pair
// (a, d) with a ∈ ancs a proper ancestor of d ∈ descs, in document order of
// the descendant.
func (e *Executor) UpwardJoin(n *core.Numbering, ancs, descs index.Postings) []index.PairID {
	return gather(e, n, ancs, descs, &pairBufPool, func(pr *index.Probe, _ *index.BlockScratch, run []core.ID, buf []index.PairID) []index.PairID {
		return index.AppendUpwardJoinRUID(n, &pr.Set, run, buf)
	})
}

// MergeJoin is index.MergeJoinPostings sharded over descs. The merge kernel
// seeds itself per run (index.AppendMergeJoinRUID), so no state crosses a
// shard boundary and the concatenated output is identical to the serial one.
func (e *Executor) MergeJoin(n *core.Numbering, ancs, descs index.Postings) []index.PairID {
	return gather(e, n, ancs, descs, &pairBufPool, func(pr *index.Probe, bs *index.BlockScratch, run []core.ID, buf []index.PairID) []index.PairID {
		return index.AppendMergeJoinRUID(n, pr, run, bs, buf)
	})
}

// UpwardSemiJoin is index.UpwardSemiJoinPostings sharded over descs: the
// members of descs having at least one proper ancestor in ancs, in input
// order.
func (e *Executor) UpwardSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return gather(e, n, ancs, descs, &idBufPool, func(pr *index.Probe, _ *index.BlockScratch, run []core.ID, buf []core.ID) []core.ID {
		return index.AppendUpwardSemiJoinRUID(n, &pr.Set, run, buf)
	})
}

// ParentSemiJoin is index.ParentSemiJoinPostings sharded over descs: the
// members of descs whose direct parent is in ancs, in input order.
func (e *Executor) ParentSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return gather(e, n, ancs, descs, &idBufPool, func(pr *index.Probe, _ *index.BlockScratch, run []core.ID, buf []core.ID) []core.ID {
		return index.AppendParentSemiJoinRUID(n, &pr.Set, run, buf)
	})
}

// AncestorSemiJoin is index.AncestorSemiJoinPostings with the probing half
// sharded over descs: the members of ancs having at least one proper
// descendant in descs, in ancs order.
func (e *Executor) AncestorSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return e.hitSemiJoin(n, ancs, descs, index.CollectAncestorHitsRUID)
}

// ChildSemiJoin is index.ChildSemiJoinPostings with the probing half
// sharded over descs: the members of ancs having at least one direct child
// in descs, in ancs order.
func (e *Executor) ChildSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return e.hitSemiJoin(n, ancs, descs, index.CollectChildHitsRUID)
}

// PathQuery is NameIndex.PathQueryRUID with every step's semi-join run
// through the executor: postings of names[0] filtered down the path by
// parallel upward semi-joins. The index's block-compressed postings are
// consumed as Postings views, so each step decodes only candidate blocks.
func (e *Executor) PathQuery(ix *index.NameIndex, names ...string) []core.ID {
	if len(names) == 0 {
		return nil
	}
	n := ix.RUID()
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
