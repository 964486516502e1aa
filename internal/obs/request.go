package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing. A RequestCtx is created once at HTTP ingress and
// travels with the request — through admission, budget charging, query
// execution, the pager, and (for writes) across the asynchronous group-
// commit pipeline, where the commit loop stamps stages on a goroutine the
// request never sees. It is the per-request counterpart of the Registry's
// aggregate counters: where the registry answers "how much, in total", the
// RequestCtx answers "where did THIS request's time go".
//
// Design constraints, in the package's house style:
//
//   - Nil-safe everywhere. A nil *RequestCtx no-ops on every method, so the
//     untraced path (no middleware, benchmarks, internal callers) pays one
//     nil check and zero allocations.
//   - Stamp is cheap: one time.Since on the request's own monotonic base
//     plus a short mutex-guarded append. Stages are recorded by whichever
//     goroutine reaches them — writer goroutines stamp wal_append and
//     fsync_done while the commit loop stamps dequeue/merged/published —
//     so the raw list is unordered; Stages() sorts by offset, which makes
//     the reported timeline monotonically non-decreasing by construction
//     (every stamp shares the same clock base).

// Canonical stage names of the group-commit write pipeline, stamped onto a
// write request's RequestCtx as its ticket moves through the stages. Shared
// here so the document layer that stamps them, the server that serves them
// and the CLIs that print them agree on the vocabulary.
const (
	StageEnqueue   = "enqueue"    // mutation accepted by the intake path
	StageWALAppend = "wal_append" // record appended to the WAL (not yet synced)
	StageFsyncDone = "fsync_done" // record durable per the WAL sync policy
	StageDequeue   = "dequeue"    // commit loop pulled the op into a batch
	StageMerged    = "merged"     // op applied to the batch's fork
	StagePublished = "published"  // the batch's single epoch published
	StageVisible   = "visible"    // waiters released; op readable by queries
)

// StageStamp is one recorded pipeline stage of a request: a name and its
// offset from request start.
type StageStamp struct {
	Name     string `json:"name"`
	OffsetUS int64  `json:"offset_us"`
}

// RequestCtx carries one request's trace identity and per-stage timeline.
// Create with NewRequest; propagate with WithRequest/RequestFrom. All
// methods are safe for concurrent use and nil-safe.
type RequestCtx struct {
	id    uint64
	kind  string // endpoint: query, insert, delete, open, ...
	doc   string
	start time.Time // monotonic base for every stamp
	wall  time.Time // wall-clock start, for display only

	mu     sync.Mutex
	stages []StageStamp
	errMsg string

	// Request-scoped resource counters, stamped by the layers that know
	// them: the server records pager I/O deltas and budget charges, the
	// admission gate records queue wait.
	ioReads  atomic.Int64
	ioHits   atomic.Int64
	postings atomic.Int64
	results  atomic.Int64
	queueNS  atomic.Int64

	status     atomic.Int32
	durationNS atomic.Int64 // frozen by Finish; 0 while in flight
}

// requestIDs hands out process-unique trace ids.
var requestIDs atomic.Uint64

// NewRequest starts a request trace for one endpoint invocation against doc
// (doc may be empty for catalog-wide endpoints).
func NewRequest(kind, doc string) *RequestCtx {
	return &RequestCtx{
		id:    requestIDs.Add(1),
		kind:  kind,
		doc:   doc,
		start: time.Now(),
		wall:  time.Now(),
	}
}

// ID returns the process-unique trace id (0 on nil).
func (rc *RequestCtx) ID() uint64 {
	if rc == nil {
		return 0
	}
	return rc.id
}

// Kind returns the endpoint label ("" on nil).
func (rc *RequestCtx) Kind() string {
	if rc == nil {
		return ""
	}
	return rc.kind
}

// Doc returns the target document name ("" on nil).
func (rc *RequestCtx) Doc() string {
	if rc == nil {
		return ""
	}
	return rc.doc
}

// Stamp records that the request reached stage name now. Safe from any
// goroutine holding a reference — the asynchronous write pipeline stamps
// stages long after the enqueuing goroutine has moved on.
func (rc *RequestCtx) Stamp(name string) {
	if rc == nil {
		return
	}
	off := time.Since(rc.start)
	rc.mu.Lock()
	rc.stages = append(rc.stages, StageStamp{Name: name, OffsetUS: off.Microseconds()})
	rc.mu.Unlock()
}

// AddIO accumulates the request's pager traffic (buffer-pool misses and
// hits).
func (rc *RequestCtx) AddIO(reads, hits int64) {
	if rc == nil {
		return
	}
	rc.ioReads.Add(reads)
	rc.ioHits.Add(hits)
}

// SetBudget records what the request's budget meter charged.
func (rc *RequestCtx) SetBudget(postings, results int64) {
	if rc == nil {
		return
	}
	rc.postings.Store(postings)
	rc.results.Store(results)
}

// AddQueueWait accumulates time the request spent waiting for an admission
// slot.
func (rc *RequestCtx) AddQueueWait(d time.Duration) {
	if rc == nil {
		return
	}
	rc.queueNS.Add(d.Nanoseconds())
}

// SetError records the request's terminal error text.
func (rc *RequestCtx) SetError(msg string) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	rc.errMsg = msg
	rc.mu.Unlock()
}

// Finish freezes the request's duration and records its HTTP status.
// Idempotent on the duration (the first Finish wins).
func (rc *RequestCtx) Finish(status int) {
	if rc == nil {
		return
	}
	rc.status.Store(int32(status))
	rc.durationNS.CompareAndSwap(0, time.Since(rc.start).Nanoseconds())
}

// Duration returns the frozen duration, or the running time before Finish.
func (rc *RequestCtx) Duration() time.Duration {
	if rc == nil {
		return 0
	}
	if ns := rc.durationNS.Load(); ns != 0 {
		return time.Duration(ns)
	}
	return time.Since(rc.start)
}

// Stages returns the recorded stamps sorted by offset. Sorting restores a
// monotone timeline from the unordered stamps of concurrent pipeline
// goroutines — every offset shares the request's single monotonic base.
func (rc *RequestCtx) Stages() []StageStamp {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	out := append([]StageStamp(nil), rc.stages...)
	rc.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].OffsetUS < out[j].OffsetUS })
	return out
}

// RequestSummary is the completed-request record kept by the flight
// recorder and served at /v1/debug/requests.
type RequestSummary struct {
	ID         uint64       `json:"id"`
	Kind       string       `json:"kind"`
	Doc        string       `json:"doc,omitempty"`
	Start      time.Time    `json:"start"`
	DurationUS int64        `json:"duration_us"`
	Status     int          `json:"status,omitempty"`
	Error      string       `json:"error,omitempty"`
	QueueUS    int64        `json:"queue_us,omitempty"`
	IOReads    int64        `json:"io_reads,omitempty"`
	IOHits     int64        `json:"io_hits,omitempty"`
	Postings   int64        `json:"postings,omitempty"`
	Results    int64        `json:"results,omitempty"`
	Stages     []StageStamp `json:"stages,omitempty"`
}

// Summary renders the request for the flight recorder (zero on nil).
func (rc *RequestCtx) Summary() RequestSummary {
	if rc == nil {
		return RequestSummary{}
	}
	rc.mu.Lock()
	errMsg := rc.errMsg
	rc.mu.Unlock()
	return RequestSummary{
		ID:         rc.id,
		Kind:       rc.kind,
		Doc:        rc.doc,
		Start:      rc.wall,
		DurationUS: rc.Duration().Microseconds(),
		Status:     int(rc.status.Load()),
		Error:      errMsg,
		QueueUS:    time.Duration(rc.queueNS.Load()).Microseconds(),
		IOReads:    rc.ioReads.Load(),
		IOHits:     rc.ioHits.Load(),
		Postings:   rc.postings.Load(),
		Results:    rc.results.Load(),
		Stages:     rc.Stages(),
	}
}

// requestKey is the context key for RequestCtx propagation.
type requestKey struct{}

// WithRequest returns a context carrying rc. A nil rc returns ctx unchanged.
func WithRequest(ctx context.Context, rc *RequestCtx) context.Context {
	if rc == nil {
		return ctx
	}
	return context.WithValue(ctx, requestKey{}, rc)
}

// RequestFrom returns the RequestCtx carried by ctx, or nil — and every
// method on the nil result no-ops, so callers stamp unconditionally.
func RequestFrom(ctx context.Context) *RequestCtx {
	if ctx == nil {
		return nil
	}
	rc, _ := ctx.Value(requestKey{}).(*RequestCtx)
	return rc
}
