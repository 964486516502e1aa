// Package budget enforces per-query resource limits inside the engine's hot
// loops. A serving process cannot let one expensive query monopolize the
// machine: the multi-document server admits a query with a Budget — a cap on
// postings decoded, a cap on identifier rows materialized, and a wall-clock
// deadline carried by a context.Context — and the join kernels themselves
// check the budget as they run, the way a bytecode VM threads allocation
// limits through every interpreter step. A query that exceeds any limit
// terminates early inside the kernel it is running and surfaces the matching
// sentinel error (ErrPostingsBudget, ErrResultBudget, or the context's own
// error for deadlines), never a partial result presented as a complete one.
//
// The enforcement point is a Meter: one per query, charged by every
// operation of that query. All methods are safe for concurrent use, and — following the internal/obs convention — nil-safe: a nil *Meter
// admits everything at the cost of one branch, so the unbudgeted path stays
// allocation- and atomics-free.
package budget

import (
	"context"
	"errors"
	"sync/atomic"
)

// Sentinel errors, in the mold of core.ErrOverflow: returned wrapped, tested
// with errors.Is. Deadline exhaustion is reported as the context's error
// (context.DeadlineExceeded or context.Canceled), not a third sentinel.
var (
	// ErrPostingsBudget reports that a query decoded or scanned more
	// postings than its budget allows.
	ErrPostingsBudget = errors.New("budget: postings limit exceeded")
	// ErrResultBudget reports that a query materialized more identifier
	// rows than its budget allows.
	ErrResultBudget = errors.New("budget: result limit exceeded")
)

// Limits is the declarative budget for one query. Zero fields are unlimited,
// so the zero Limits admits everything (modulo the context's deadline).
type Limits struct {
	// MaxPostings caps the postings the query may decode or scan across all
	// of its join stages: every block admitted by the seek kernels' skip
	// test, every probe-side identifier materialized, every slice-backed
	// intermediate fed back into a kernel. It is the query's I/O-shaped
	// work bound.
	MaxPostings int64
	// MaxResults caps the identifier rows the query may materialize:
	// per-stage join outputs and the final result set. It is the query's
	// memory-shaped bound.
	MaxResults int64
}

// Meter enforces one query's Limits and deadline. Construct with NewMeter;
// a nil *Meter is the no-budget meter (every charge admitted, Err nil).
//
// The first limit to trip wins and is latched: every later charge on any
// goroutine is refused, which is what stops an operation — its scan halts at
// its next charge point, typically one posting run later.
type Meter struct {
	ctx         context.Context
	maxPostings int64
	maxResults  int64
	postings    atomic.Int64
	results     atomic.Int64
	tripped     atomic.Pointer[error]
}

// NewMeter builds the meter for one query. ctx carries the deadline and is
// sampled at every charge point (block-run granularity in the kernels, so a
// deadline is honored within ~one block decode). A nil ctx meters only the
// explicit limits.
func NewMeter(ctx context.Context, l Limits) *Meter {
	return &Meter{ctx: ctx, maxPostings: l.MaxPostings, maxResults: l.MaxResults}
}

// trip latches err as the meter's verdict. The first trip wins.
func (m *Meter) trip(err error) {
	m.tripped.CompareAndSwap(nil, &err)
}

// checkCtx samples the deadline; reports false when the context is done.
func (m *Meter) checkCtx() bool {
	if m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			m.trip(err)
			return false
		}
	}
	return true
}

// ChargePostings accounts for n postings about to be decoded or scanned and
// reports whether the query may proceed. Once it returns false — for any
// reason, on any goroutine — every subsequent charge returns false too, so
// kernels use it as their early-termination test. Consumption is counted
// even when the corresponding limit is unlimited: a metered-but-uncapped
// query still reports what it spent.
func (m *Meter) ChargePostings(n int) bool {
	if m == nil {
		return true
	}
	if m.tripped.Load() != nil {
		return false
	}
	if m.postings.Add(int64(n)) > m.maxPostings && m.maxPostings > 0 {
		m.trip(ErrPostingsBudget)
		return false
	}
	return m.checkCtx()
}

// ChargeResults accounts for n identifier rows just materialized and reports
// whether the query may proceed.
func (m *Meter) ChargeResults(n int) bool {
	if m == nil {
		return true
	}
	if m.tripped.Load() != nil {
		return false
	}
	if m.results.Add(int64(n)) > m.maxResults && m.maxResults > 0 {
		m.trip(ErrResultBudget)
		return false
	}
	return m.checkCtx()
}

// Check samples the deadline and the latch without charging anything — the
// entry test before a pipeline stage or a navigation fallback.
func (m *Meter) Check() bool {
	if m == nil {
		return true
	}
	if m.tripped.Load() != nil {
		return false
	}
	return m.checkCtx()
}

// Err returns the sentinel that tripped the meter, or nil while the query is
// within budget. Test with errors.Is against ErrPostingsBudget,
// ErrResultBudget, context.DeadlineExceeded or context.Canceled.
func (m *Meter) Err() error {
	if m == nil {
		return nil
	}
	if p := m.tripped.Load(); p != nil {
		return *p
	}
	return nil
}

// Postings returns the postings charged so far (0 on nil).
func (m *Meter) Postings() int64 {
	if m == nil {
		return 0
	}
	return m.postings.Load()
}

// Results returns the result rows charged so far (0 on nil).
func (m *Meter) Results() int64 {
	if m == nil {
		return 0
	}
	return m.results.Load()
}
