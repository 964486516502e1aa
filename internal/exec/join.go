package exec

import (
	"time"

	"repro/internal/core"
	"repro/internal/index"
)

// The four structural semi-joins over index.Postings views. Every operation,
// on every executor — plain, observed or metered — takes the same path:
// the probe's window of the descendant side (index.Probe.Window) is scanned
// by index.ForEachRun, and the operation's run kernel turns every admitted
// run into rows, in document order, because the inputs are
// document-ordered and every kernel preserves input order. The two top-down
// semi-joins also have a counting form (count), the same path with each
// run's rows counted and dropped, for a caller that reads only the size of
// the answer.
//
// Budget enforcement (WithMeter) has one pattern: the probe side is charged
// as postings before it is built, the descendant side is charged inside
// index.ForEachRun — per admitted run, before any decode, whatever the view
// — and output rows are charged as results. A refused charge stops the scan
// at its next run, so a query over budget terminates inside the join
// kernels — the partial output is discarded by the planner, which surfaces
// the meter's sentinel error instead.

// op is one operation in flight: what begin sets up, scan reads and end
// tears down.
type op struct {
	e      *Executor
	n      *core.Numbering
	descs  index.Postings
	pr     *index.Probe
	s      *scratch
	lo, hi int // the probe's window of descs
	start  time.Time
}

// begin sets o up: it charges the probe side, builds the probe and narrows
// descs to the probe's window. It reports false when the budget refuses the
// probe side; otherwise the caller must call o.end. The caller's op stays on
// its stack.
func (e *Executor) begin(o *op, n *core.Numbering, ancs, descs index.Postings) bool {
	*o = op{e: e, n: n, descs: descs, start: e.opStart()}
	if !e.meter.ChargePostings(ancs.Len()) {
		e.noteOp(o.start)
		return false
	}
	o.pr = index.MakeProbe(ancs)
	o.s = e.getScratch()
	o.lo, o.hi = o.pr.Window(n, descs, &o.s.BlockScratch)
	return true
}

// scan hands fn every run of the window the probe admits.
func (o *op) scan(fn func(run []core.ID)) {
	index.ForEachRun(o.n, o.pr, o.descs, o.lo, o.hi, &o.s.BlockScratch, fn)
}

// end records the operation and releases its probe and scratch.
func (o *op) end() {
	o.e.noteBlockStats(&o.s.Stats)
	putScratch(o.s)
	o.pr.Release()
	o.e.noteOp(o.start)
}

// kernel is one top-down semi-join's run kernel (package index): it climbs
// through c, probes set and appends the rows run produces to out.
type kernel func(c *core.ParentCursor, set *index.IDSet, run, out []core.ID) []core.ID

// gather is the driver of the two semi-joins whose rows follow the
// descendant side: the kernel appends every run's rows to the scratch's row
// buffer, which is copied into one pooled result (acquireIDs) of its size.
func gather(e *Executor, n *core.Numbering, ancs, descs index.Postings, k kernel) []core.ID {
	var o op
	if !e.begin(&o, n, ancs, descs) {
		return nil
	}
	defer o.end()
	rows := o.s.rows
	o.scan(func(run []core.ID) {
		before := len(rows)
		rows = k(o.s.Cursor(), &o.pr.Set, run, rows)
		e.meter.ChargeResults(len(rows) - before)
	})
	o.s.rows = rows
	return append(acquireIDs(len(rows)), rows...)
}

// count is gather's counting form: every admitted run goes through the same
// kernel into the row buffer, which is emptied after each run, and count
// adds up what each run kept. Results are charged per run as gather charges
// them, so a counted operation spends the budget its materialised form
// would; the output itself is never written anywhere that outlives a run.
func count(e *Executor, n *core.Numbering, ancs, descs index.Postings, k kernel) int {
	var o op
	if !e.begin(&o, n, ancs, descs) {
		return 0
	}
	defer o.end()
	total := 0
	o.scan(func(run []core.ID) {
		o.s.rows = k(o.s.Cursor(), &o.pr.Set, run, o.s.rows[:0])
		total += len(o.s.rows)
		e.meter.ChargeResults(len(o.s.rows))
	})
	return total
}

// hitSemiJoin is the driver of the two bottom-up semi-joins, whose rows
// follow the ancestor side: the scan collects the probe members it hits
// into a hit set, and the ancestor side is then filtered through it, which
// keeps ancestor order without a sort.
func (e *Executor) hitSemiJoin(n *core.Numbering, ancs, descs index.Postings, collect func(c *core.ParentCursor, set *index.IDSet, run []core.ID, hit *index.IDSet)) []core.ID {
	var o op
	if !e.begin(&o, n, ancs, descs) {
		return nil
	}
	defer o.end()
	// A hit is a probe member, and m descendants seldom hit more than m of
	// them; a join that does grows its table.
	hit := o.pr.AcquireHits(min(ancs.Len(), descs.Len()))
	defer hit.Release()
	o.scan(func(run []core.ID) { collect(o.s.Cursor(), &o.pr.Set, run, hit) })
	out := index.AppendHitMembersPostings(o.pr, hit, acquireIDs(hit.Len()))
	e.meter.ChargeResults(len(out))
	return out
}

// UpwardSemiJoin returns the members of descs having at least one proper
// ancestor in ancs, in input order.
func (e *Executor) UpwardSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return gather(e, n, ancs, descs, index.AppendUpwardSemiJoinRUID)
}

// CountUpwardSemiJoin is len(UpwardSemiJoin(n, ancs, descs)), charged
// against the budget as UpwardSemiJoin is, without writing the result.
func (e *Executor) CountUpwardSemiJoin(n *core.Numbering, ancs, descs index.Postings) int {
	return count(e, n, ancs, descs, index.AppendUpwardSemiJoinRUID)
}

// ParentSemiJoin returns the members of descs whose direct parent is in
// ancs, in input order. One rparent computation per candidate.
func (e *Executor) ParentSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return gather(e, n, ancs, descs, index.AppendParentSemiJoinRUID)
}

// CountParentSemiJoin is len(ParentSemiJoin(n, ancs, descs)), charged
// against the budget as ParentSemiJoin is, without writing the result.
func (e *Executor) CountParentSemiJoin(n *core.Numbering, ancs, descs index.Postings) int {
	return count(e, n, ancs, descs, index.AppendParentSemiJoinRUID)
}

// AncestorSemiJoin returns the members of ancs having at least one proper
// descendant in descs, in ancs order.
func (e *Executor) AncestorSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return e.hitSemiJoin(n, ancs, descs, index.CollectAncestorHitsRUID)
}

// ChildSemiJoin returns the members of ancs having at least one direct
// child in descs, in ancs order.
func (e *Executor) ChildSemiJoin(n *core.Numbering, ancs, descs index.Postings) []core.ID {
	return e.hitSemiJoin(n, ancs, descs, index.CollectChildHitsRUID)
}
