// Package exec is the execution layer of the identifier read path: the four
// structural semi-joins over index.Postings views, run serially on the
// calling goroutine. An operation is one charge of the probe side, one
// index.MakeProbe, one Probe.Window, one index.ForEachRun over that window,
// one run kernel (package index) and one pooled result. Document-order
// sortedness of index.NameIndex postings (see index/debug.go) makes every
// output document-ordered without a sort.
//
// Queries run concurrently under the server's admission control, and that
// is where the host's cores go: an operation never fans out, so it takes one
// core however large its inputs.
//
// An Executor owns nothing but its sinks: the registry its engine metrics
// go to, a per-query trace span (WithSpan) and a per-query budget
// (WithMeter). Every executor runs the same path.
package exec

import (
	"sync"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
)

// Config configures an Executor. The zero value is the serving default: no
// observation.
type Config struct {
	// Observe, when non-nil, receives the executor's engine metrics
	// (operation latencies, seek-kernel block statistics, pool traffic).
	// nil leaves the executor unobserved at one branch of cost per
	// operation.
	Observe *obs.Registry
}

// Executor runs identifier joins. It is immutable and safe for concurrent
// use; one executor is shared by every query of a planner. WithSpan and
// WithMeter derive per-query views.
type Executor struct {
	m     *execMetrics
	span  *obs.Span
	meter *budget.Meter // per-query budget; nil when unbudgeted
}

// New builds an executor from cfg.
func New(cfg Config) *Executor {
	return &Executor{m: newExecMetrics(cfg.Observe)}
}

var defaultExec = New(Config{})

// Default returns the process-wide unobserved executor: a query planner
// runs on it until SetExecutor names another.
func Default() *Executor { return defaultExec }

// Pooled memory. An operation draws one scratch — the scan's
// index.BlockScratch and the buffer its kernel writes rows into — and
// returns it when it ends. An identifier result is itself drawn from a pool
// (acquireIDs), and the caller that owns it hands it back with ReleaseIDs
// once the step consuming it has returned: the twig pipeline releases every
// intermediate that way, and a counted answer too.

// scratch is one operation's working memory.
type scratch struct {
	index.BlockScratch
	rows []core.ID // the run kernel's output, copied into the result
}

var scratchPool = sync.Pool{New: func() any { poolMisses.Add(1); return new(scratch) }}

// getScratch hands out a pooled scratch wired to this executor's meter, so
// index.ForEachRun charges every admitted run against the query's budget.
func (e *Executor) getScratch() *scratch {
	poolGets.Add(1)
	s := scratchPool.Get().(*scratch)
	s.Meter = e.meter
	return s
}

// putScratch zeroes the statistics and detaches the meter so a pooled
// scratch never leaks one operation's counts — or one query's budget — into
// the next.
func putScratch(s *scratch) {
	s.Stats = index.BlockStats{}
	s.Meter = nil
	s.rows = s.rows[:0]
	scratchPool.Put(s)
}

// resultPool holds released identifier results. It is apart from
// scratchPool so that a result, which its caller may keep, never takes an
// operation's grown row buffer away with it.
var resultPool sync.Pool

// releasedID marks a slice ReleaseIDs has taken back: no identifier has a
// global index below 1.
var releasedID = core.ID{Global: -1}

// acquireIDs returns an empty slice with room for n identifiers, the backing
// of one operation's result: a released result when the pool has one large
// enough, a new slice otherwise.
func acquireIDs(n int) []core.ID {
	poolGets.Add(1)
	if b, _ := resultPool.Get().(*[]core.ID); b != nil && cap(*b) >= n {
		ids := (*b)[:0]
		if cap(ids) > 0 {
			ids[:1][0] = core.ID{} // live again: an empty result may be released
		}
		return ids
	}
	poolMisses.Add(1)
	return make([]core.ID, 0, n)
}

// ReleaseIDs hands an identifier result of this package — UpwardSemiJoin,
// ParentSemiJoin, AncestorSemiJoin or ChildSemiJoin — back for a later
// operation to reuse. The caller must own ids (nothing else holds the slice,
// or a view of it) and must not read it afterwards; an answer that escapes
// to a caller's caller is never released. Releasing a slice that is back in
// the pool panics, as IDSet.Release does.
func ReleaseIDs(ids []core.ID) {
	if cap(ids) == 0 {
		return
	}
	head := ids[:1]
	if head[0] == releasedID {
		panic("exec: identifier result released twice")
	}
	head[0] = releasedID
	b := new([]core.ID) // boxed here, so a call with nothing to release allocates nothing
	*b = ids[:0]
	resultPool.Put(b)
}
