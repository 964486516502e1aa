package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Flight recorder: an always-on, fixed-size ring of completed request
// summaries plus a threshold-gated slow-request log. The point is
// post-incident forensics — when a request was slow five seconds ago, the
// evidence is already in memory, bounded, and servable from
// /v1/debug/requests and /v1/debug/slow (or dumped to stderr on SIGQUIT)
// without having had tracing "turned on" in advance.
//
// Lock-cheap by construction: recording takes one atomic add (to claim a
// slot) plus one per-slot mutex that is only ever contended when two
// requests land on the same slot modulo the ring size — i.e. never, in
// practice, for any ring larger than the instantaneous completion
// concurrency. There is no global lock on the record path.

// ring is a fixed-size overwrite-oldest buffer of RequestSummary values.
type ring struct {
	slots []ringSlot
	next  atomic.Uint64
}

type ringSlot struct {
	mu  sync.Mutex
	s   RequestSummary
	set bool
}

func newRing(n int) *ring {
	if n < 1 {
		n = 1
	}
	return &ring{slots: make([]ringSlot, n)}
}

func (r *ring) put(s RequestSummary) {
	i := r.next.Add(1) - 1
	slot := &r.slots[i%uint64(len(r.slots))]
	slot.mu.Lock()
	slot.s = s
	slot.set = true
	slot.mu.Unlock()
}

// snapshot returns the ring's contents newest-first.
func (r *ring) snapshot() []RequestSummary {
	n := r.next.Load()
	size := uint64(len(r.slots))
	count := n
	if count > size {
		count = size
	}
	out := make([]RequestSummary, 0, count)
	for k := uint64(0); k < count; k++ {
		slot := &r.slots[(n-1-k)%size]
		slot.mu.Lock()
		if slot.set {
			out = append(out, slot.s)
		}
		slot.mu.Unlock()
	}
	return out
}

// DefaultFlightRecords is the ring size used when none is configured.
const DefaultFlightRecords = 256

// DefaultSlowThreshold gates the slow-request log when none is configured.
const DefaultSlowThreshold = 250 * time.Millisecond

// FlightRecorder keeps the last N completed request summaries and,
// separately, the last N whose duration crossed the slow threshold. All
// methods are nil-safe: a nil recorder records nothing, costs one branch.
type FlightRecorder struct {
	all    *ring
	slow   *ring
	thresh time.Duration
}

// NewFlightRecorder returns a recorder keeping records summaries
// (DefaultFlightRecords if ≤ 0) with the given slow threshold
// (DefaultSlowThreshold if ≤ 0).
func NewFlightRecorder(records int, slow time.Duration) *FlightRecorder {
	if records <= 0 {
		records = DefaultFlightRecords
	}
	if slow <= 0 {
		slow = DefaultSlowThreshold
	}
	return &FlightRecorder{
		all:    newRing(records),
		slow:   newRing(records),
		thresh: slow,
	}
}

// SlowThreshold returns the configured slow gate (0 on nil).
func (f *FlightRecorder) SlowThreshold() time.Duration {
	if f == nil {
		return 0
	}
	return f.thresh
}

// Record files one completed request. Requests at or over the slow
// threshold are additionally copied to the slow log.
func (f *FlightRecorder) Record(s RequestSummary) {
	if f == nil {
		return
	}
	f.all.put(s)
	if time.Duration(s.DurationUS)*time.Microsecond >= f.thresh {
		f.slow.put(s)
	}
}

// RecordRequest is Record on a RequestCtx: summarizes and files it. Both a
// nil recorder and a nil request no-op.
func (f *FlightRecorder) RecordRequest(rc *RequestCtx) {
	if f == nil || rc == nil {
		return
	}
	f.Record(rc.Summary())
}

// Requests returns the recent-request ring newest-first (nil on nil).
func (f *FlightRecorder) Requests() []RequestSummary {
	if f == nil {
		return nil
	}
	return f.all.snapshot()
}

// Slow returns the slow-request log newest-first (nil on nil).
func (f *FlightRecorder) Slow() []RequestSummary {
	if f == nil {
		return nil
	}
	return f.slow.snapshot()
}

// Dump writes a human-readable rendering of both rings — the SIGQUIT
// post-incident dump. Safe on nil.
func (f *FlightRecorder) Dump(w io.Writer) {
	if f == nil {
		return
	}
	slow := f.Slow()
	fmt.Fprintf(w, "== flight recorder: %d slow request(s) (threshold %v) ==\n", len(slow), f.thresh)
	for _, s := range slow {
		dumpSummary(w, s)
	}
	recent := f.Requests()
	fmt.Fprintf(w, "== flight recorder: %d recent request(s) ==\n", len(recent))
	for _, s := range recent {
		dumpSummary(w, s)
	}
}

func dumpSummary(w io.Writer, s RequestSummary) {
	fmt.Fprintf(w, "req %d %s", s.ID, s.Kind)
	if s.Doc != "" {
		fmt.Fprintf(w, " doc=%s", s.Doc)
	}
	fmt.Fprintf(w, " status=%d dur=%v", s.Status, time.Duration(s.DurationUS)*time.Microsecond)
	if s.QueueUS > 0 {
		fmt.Fprintf(w, " queue=%v", time.Duration(s.QueueUS)*time.Microsecond)
	}
	if s.Postings > 0 || s.Results > 0 {
		fmt.Fprintf(w, " postings=%d results=%d", s.Postings, s.Results)
	}
	if s.Error != "" {
		fmt.Fprintf(w, " err=%q", s.Error)
	}
	fmt.Fprintln(w)
	for _, st := range s.Stages {
		fmt.Fprintf(w, "  +%8dus %s\n", st.OffsetUS, st.Name)
	}
}
