package exec

import (
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/index"
	"repro/internal/obs"
)

// Observability wiring. The executor records into two sinks, both optional
// and both nil-safe:
//
//   - an *obs.Registry (Config.Observe), resolved once at New into an
//     execMetrics struct of counter/histogram pointers — process-lifetime
//     engine metrics;
//   - an *obs.Span (WithSpan), attached per operation by the planner —
//     the per-query EXPLAIN ANALYZE trace.
//
// Neither changes what an operation does — there is one execution path, and
// it always gathers block statistics; a sink only decides whether they are
// kept. With neither present the cost is one branch per
// clock read and one atomic add per pool round-trip.

// Pool traffic counters, global because the pools are. A miss is a Get that
// fell through to the pool's New; hit rate = 1 - misses/gets. The probe and
// hit-set pools live in package index, next to the serial join forms that
// also draw from them, and are reported here with the executor's own.
var (
	poolGets   atomic.Int64
	poolMisses atomic.Int64
)

// execMetrics holds the registry pointers the executor records into. nil
// means "no registry": individual fields are then never dereferenced.
type execMetrics struct {
	ops  *obs.Counter
	opNS *obs.Histogram

	// Seek-kernel block statistics. Named index.* because they witness the
	// skip table's work, but owned here: package index stays free of obs.
	blocksAdmitted *obs.Counter
	blocksSkipped  *obs.Counter
	skipProbes     *obs.Counter
	admitAll       *obs.Counter
}

func newExecMetrics(r *obs.Registry) *execMetrics {
	if r == nil {
		return nil
	}
	r.RegisterFunc("exec.pool_gets", func() int64 { g, _ := index.PoolTraffic(); return g + poolGets.Load() })
	r.RegisterFunc("exec.pool_misses", func() int64 { _, m := index.PoolTraffic(); return m + poolMisses.Load() })
	return &execMetrics{
		ops:            r.Counter("exec.ops"),
		opNS:           r.Histogram("exec.op_ns"),
		blocksAdmitted: r.Counter("index.blocks_admitted"),
		blocksSkipped:  r.Counter("index.blocks_skipped"),
		skipProbes:     r.Counter("index.skip_probes"),
		admitAll:       r.Counter("index.admit_all_fallbacks"),
	}
}

// WithSpan returns an executor recording into sp in addition to the
// receiver's registry. The copy shares the receiver's metrics (and any
// attached meter); the planner attaches one span per query stage.
// WithSpan(nil) on an untraced executor returns the receiver unchanged.
func (e *Executor) WithSpan(sp *obs.Span) *Executor {
	if sp == nil && e.span == nil {
		return e
	}
	c := *e
	c.span = sp
	return &c
}

// WithMeter returns an executor whose operations charge the query budget m:
// the probe side and every admitted run of the descendant side are charged
// as postings scanned (the latter inside index.ForEachRun, before any
// decode), and every operation's output rows are charged as results. A
// tripped meter stops the scan at its next run and the operation returns a
// partial (to-be-discarded) output; the caller surfaces m.Err().
// WithMeter(nil) returns the receiver unchanged.
func (e *Executor) WithMeter(m *budget.Meter) *Executor {
	if m == nil {
		return e
	}
	c := *e
	c.meter = m
	return &c
}

// opStart reads the clock for noteOp, when a registry will take the reading.
func (e *Executor) opStart() (t time.Time) {
	if e.m != nil {
		t = time.Now()
	}
	return t
}

// noteOp records one completed operation (wall time from start).
func (e *Executor) noteOp(start time.Time) {
	if e.m != nil {
		e.m.ops.Inc()
		e.m.opNS.Observe(time.Since(start).Nanoseconds())
	}
}

// noteBlockStats folds one operation's seek statistics into both sinks.
func (e *Executor) noteBlockStats(st *index.BlockStats) {
	if st.Probes == 0 && st.Admitted == 0 && st.Skipped == 0 && st.AdmitAll == 0 {
		return
	}
	if e.m != nil {
		e.m.blocksAdmitted.Add(uint64(st.Admitted))
		e.m.blocksSkipped.Add(uint64(st.Skipped))
		e.m.skipProbes.Add(uint64(st.Probes))
		e.m.admitAll.Add(uint64(st.AdmitAll))
	}
	e.span.AddBlocks(st.Admitted, st.Skipped, st.Probes, st.AdmitAll)
}
