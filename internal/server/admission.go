package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Admission control. The server bounds the queries it executes
// concurrently (inflight slots — a query runs on one goroutine, so the slots
// are the real parallelism) and the queries it lets wait for a slot (the queue). Load beyond both bounds
// is shed immediately with ErrOverloaded rather than queued without limit:
// an unbounded queue converts overload into unbounded latency for every
// request, while shedding keeps the served requests' latency flat and
// gives clients an explicit retry signal. Waiters are deadline-aware — a
// request whose context expires while queued leaves the queue with the
// context's error instead of occupying a slot it can no longer use.
//
// This is graceful degradation under saturation: past the knee, throughput
// holds at the slot capacity, p99 of *served* requests stays bounded by
// queue depth × service time, and the excess is cheap, early 503s.

// ErrOverloaded reports that the server is at its concurrency limit with a
// full queue — the request was shed without execution. Clients should back
// off and retry. Test with errors.Is.
var ErrOverloaded = errors.New("server: overloaded, request shed")

// admission is the slot gate. The zero value is unusable; newAdmission.
type admission struct {
	slots  chan struct{}
	queued atomic.Int64
	// maxQueue bounds how many requests may block in Acquire at once.
	maxQueue int64

	// counters for the obs registry (read via RegisterFunc).
	shed     atomic.Int64
	admitted atomic.Int64
}

func newAdmission(inflight, queue int) *admission {
	if inflight < 1 {
		inflight = 1
	}
	if queue < 0 {
		queue = 0
	}
	a := &admission{slots: make(chan struct{}, inflight), maxQueue: int64(queue)}
	for i := 0; i < inflight; i++ {
		a.slots <- struct{}{}
	}
	return a
}

// Acquire claims an execution slot, waiting in the bounded queue when all
// slots are busy. It returns ErrOverloaded when the queue is full, or
// ctx.Err() if the request's deadline expires while waiting. On nil error
// the caller must Release.
func (a *admission) Acquire(ctx context.Context) error {
	// Fast path: free slot, no queueing.
	select {
	case <-a.slots:
		a.admitted.Add(1)
		return nil
	default:
	}
	// Queue admission: a bounded number of waiters. The counter may
	// transiently overshoot under a race; the compensating decrement keeps
	// the bound within one per racing request, which is all a shed decision
	// needs.
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.shed.Add(1)
		return ErrOverloaded
	}
	defer a.queued.Add(-1)
	// The slow path is the queue-wait span of the request's trace: stamp
	// entry and account the wait, so the flight recorder can show where an
	// admitted-but-queued request's time went.
	rc := obs.RequestFrom(ctx)
	rc.Stamp("queued")
	start := time.Now()
	select {
	case <-a.slots:
		a.admitted.Add(1)
		rc.AddQueueWait(time.Since(start))
		return nil
	case <-ctx.Done():
		a.shed.Add(1)
		rc.AddQueueWait(time.Since(start))
		return ctx.Err()
	}
}

// Release returns a slot claimed by Acquire.
func (a *admission) Release() {
	a.slots <- struct{}{}
}

// Inflight reports the number of busy execution slots.
func (a *admission) Inflight() int64 {
	return int64(cap(a.slots) - len(a.slots))
}

// Queued reports the number of requests waiting for a slot.
func (a *admission) Queued() int64 { return a.queued.Load() }
