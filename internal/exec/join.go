package exec

import (
	"time"

	"repro/internal/core"
	"repro/internal/index"
)

// The four structural semi-joins over index.Postings views. Every operation,
// in every mode and on every executor — plain, observed or metered — takes
// the same path: the probe's window of the descendant side
// (index.Probe.Window) is cut into unit ranges (shardUnits),
// each range is scanned by index.ForEachRun against one shared read-only
// probe, the operation's run kernel turns every admitted run into rows, and
// shard outputs concatenate in range order — which is document order,
// because the inputs are document-ordered and every kernel preserves input
// order. Serial mode (and an Auto operation below the crossover) is the same
// path with one range; the serial one-shots of internal/scheme are the
// reference the tests compare it against, not a path it delegates to. The
// two top-down semi-joins also have a counting form (count), the same path
// with each run's rows counted and dropped, for a caller that reads only the
// size of the answer.
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

// begin charges the probe side, builds the probe, narrows descs to the
// probe's window, resolves the worker policy and cuts the window into unit
// ranges. It returns nil when the budget refuses the probe side; otherwise
// the caller must call end.
func (e *Executor) begin(n *core.Numbering, ancs, descs index.Postings) *op {
	o := &op{e: e, n: n, descs: descs, start: e.opStart()}
	if !e.meter.ChargePostings(ancs.Len()) {
		e.noteOp(o.start)
		return nil
	}
	o.pr = index.MakeProbe(ancs)
	bs := e.blockScratch()
	lo, hi := o.pr.Window(n, descs, bs)
	e.noteBlockStats(&bs.Stats)
	putBlockScratch(bs)
	o.ranges = shardUnits(descs, lo, hi, e.workersFor(ancs.Len()+descs.Len()))
	return o
}

// shards scans every range on the pool. shard(s, bs) prepares range s — bs is
// the worker's pooled scratch, wired to the meter — and returns what to do
// with each of its admitted runs.
func (o *op) shards(shard func(s int, bs *index.BlockScratch) func(run []core.ID)) {
	clock := o.e.newShardClock(len(o.ranges))
	o.e.run(len(o.ranges), func(s int) {
		t := clock.start()
		bs := o.e.blockScratch()
		index.ForEachRun(o.n, o.pr, o.descs, o.ranges[s][0], o.ranges[s][1], bs, shard(s, bs))
		o.e.noteBlockStats(&bs.Stats)
		putBlockScratch(bs)
		clock.stop(s, t)
	})
	clock.note(o.e)
}

// end releases the probe and records the operation.
func (o *op) end() {
	o.pr.Release()
	o.e.noteOp(o.start)
}

// kernel is one join's run kernel bound to its numbering: it appends the
// rows run produces against the probe to buf.
type kernel func(pr *index.Probe, bs *index.BlockScratch, run []core.ID, buf []core.ID) []core.ID

// gather is the sharding driver of the two semi-joins whose rows follow the
// descendant side: every shard appends into a pooled buffer, and the buffers
// are copied in range order into one pooled result (acquireIDs).
func gather(e *Executor, n *core.Numbering, ancs, descs index.Postings, k kernel) []core.ID {
	o := e.begin(n, ancs, descs)
	if o == nil {
		return nil
	}
	defer o.end()
	bufs := make([]*[]core.ID, len(o.ranges))
	o.shards(func(s int, bs *index.BlockScratch) func(run []core.ID) {
		poolGets.Add(1)
		b := idBufPool.Get().(*[]core.ID)
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
	out := acquireIDs(total)
	for _, b := range bufs {
		out = append(out, *b...)
		*b = (*b)[:0]
		idBufPool.Put(b)
	}
	return out
}

// count is gather's counting form for the two semi-joins whose rows follow
// the descendant side: every admitted run goes through the same kernel into
// the shard's pooled buffer, which is emptied after each run, and the shard
// adds up what each run kept. Results are charged per run as gather charges
// them, so a counted operation spends the budget its materialised form
// would; the output itself is never written anywhere that outlives a run.
func count(e *Executor, n *core.Numbering, ancs, descs index.Postings, k kernel) int {
	o := e.begin(n, ancs, descs)
	if o == nil {
		return 0
	}
	defer o.end()
	type tally struct {
		buf  *[]core.ID
		rows int
	}
	tallies := make([]tally, len(o.ranges))
	o.shards(func(s int, bs *index.BlockScratch) func(run []core.ID) {
		poolGets.Add(1)
		t := &tallies[s]
		t.buf = idBufPool.Get().(*[]core.ID)
		return func(run []core.ID) {
			*t.buf = k(o.pr, bs, run, (*t.buf)[:0])
			t.rows += len(*t.buf)
			e.meter.ChargeResults(len(*t.buf))
		}
	})
	total := 0
	for _, t := range tallies {
		total += t.rows
		*t.buf = (*t.buf)[:0]
		idBufPool.Put(t.buf)
	}
	return total
}

// hitSemiJoin is the driver of the two bottom-up semi-joins, whose rows
// follow the ancestor side: shards accumulate private hit sets, and the
// ancestor side is then filtered through them serially, which restores
// order without a sort.
func (e *Executor) hitSemiJoin(n *core.Numbering, ancs, descs index.Postings, collect func(c *core.ParentCursor, set *index.IDSet, run []core.ID, hit *index.IDSet)) []core.ID {
	o := e.begin(n, ancs, descs)
	if o == nil {
		return nil
	}
	defer o.end()
	hits := make([]*index.IDSet, len(o.ranges))
	// A hit is a probe member, and a shard of m descendants seldom hits more
	// than m of them; a shard that does grows its table.
	sized := min(ancs.Len(), descs.Len()/len(hits)+1)
	o.shards(func(s int, bs *index.BlockScratch) func(run []core.ID) {
		hit := o.pr.AcquireHits(sized)
		hits[s] = hit
		return func(run []core.ID) { collect(bs.Cursor(), &o.pr.Set, run, hit) }
	})
	// Two shards can hit the same ancestor, so the sum bounds the output.
	total := 0
	for _, h := range hits {
		total += h.Len()
	}
	out := index.AppendHitMembersPostings(o.pr, hits, acquireIDs(min(ancs.Len(), total)))
	e.meter.ChargeResults(len(out))
	for _, h := range hits {
		h.Release()
	}
	return out
}

// upwardSemiRows and parentSemiRows are the run kernels of the two
// top-down semi-joins, shared by their materialised and counting forms.
func upwardSemiRows(pr *index.Probe, bs *index.BlockScratch, run []core.ID, buf []core.ID) []core.ID {
	return index.AppendUpwardSemiJoinRUID(bs.Cursor(), &pr.Set, run, buf)
}

func parentSemiRows(pr *index.Probe, bs *index.BlockScratch, run []core.ID, buf []core.ID) []core.ID {
	return index.AppendParentSemiJoinRUID(bs.Cursor(), &pr.Set, run, buf)
}

// UpwardSemiJoin is scheme.UpwardSemiJoinPostings sharded over descs: the
// members of descs having at least one proper ancestor in ancs, in input
// order.
func (e *Executor) UpwardSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return gather(e, n, ancs, descs, upwardSemiRows)
}

// CountUpwardSemiJoin is len(UpwardSemiJoin(n, ancs, descs)), charged
// against the budget as UpwardSemiJoin is, without writing the result.
func (e *Executor) CountUpwardSemiJoin(n *core.Numbering, ancs, descs index.Postings) int {
	return count(e, n, ancs, descs, upwardSemiRows)
}

// ParentSemiJoin is scheme.ParentSemiJoinPostings sharded over descs: the
// members of descs whose direct parent is in ancs, in input order.
func (e *Executor) ParentSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return gather(e, n, ancs, descs, parentSemiRows)
}

// CountParentSemiJoin is len(ParentSemiJoin(n, ancs, descs)), charged
// against the budget as ParentSemiJoin is, without writing the result.
func (e *Executor) CountParentSemiJoin(n *core.Numbering, ancs, descs index.Postings) int {
	return count(e, n, ancs, descs, parentSemiRows)
}

// AncestorSemiJoin is scheme.AncestorSemiJoinPostings with the probing half
// sharded over descs: the members of ancs having at least one proper
// descendant in descs, in ancs order.
func (e *Executor) AncestorSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return e.hitSemiJoin(n, ancs, descs, index.CollectAncestorHitsRUID)
}

// ChildSemiJoin is scheme.ChildSemiJoinPostings with the probing half
// sharded over descs: the members of ancs having at least one direct child
// in descs, in ancs order.
func (e *Executor) ChildSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return e.hitSemiJoin(n, ancs, descs, index.CollectChildHitsRUID)
}
