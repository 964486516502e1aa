package main

import (
	"math/rand"
	"time"

	"repro/internal/server"
)

// Hooks let the traced run watch every request without the untraced path
// paying for more than a nil check.
type (
	readHook  func(q *query, d time.Duration, resp server.QueryResponse)
	writeHook func(d time.Duration, resp server.WriteResponse)
)

// joinRound is read_join's unit of work: the five set-at-a-time queries,
// back to back. Latency is taken per round, not per query, because the
// queries differ fourfold in cost: a percentile over single queries would
// sit between two of them and see a regression in one query only.
func (r *run) joinRound() []*query { return r.joins }

// pointRound is read_point's unit of work: one seeded lookup from each of
// the four templates.
func (r *run) pointRound() []*query {
	round := make([]*query, len(r.points))
	for i, pool := range r.points {
		round[i] = pool[r.rng.Intn(len(pool))]
	}
	return round
}

// readSlice is the one reader: closed loop, it sends rounds until the
// slice's deadline has passed and always finishes the round it started, with
// a reference sample between rounds.
func (r *run) readSlice(deadline time.Time, round func() []*query, hook readHook) segStat {
	s := segStat{start: time.Now()}
	allocDone := r.allocMark(&s)
	r.ref.sample(1)
	for time.Now().Before(deadline) {
		t := timed{start: time.Now()}
		for _, q := range round() {
			d, resp := r.read(q)
			if hook != nil {
				hook(q, d, resp)
			}
			t.d += d
			s.ops++
		}
		t.end = time.Now()
		r.ref.sample(1)
		s.rounds = append(s.rounds, t)
	}
	allocDone()
	s.end = time.Now()
	s.work, s.tputOps = s.rounds, s.ops
	return s
}

// writeSlice is write_area's slice, two phases of equal length on random
// open_auction elements. Visible: a round is an insert then the delete that
// undoes it, each acknowledged at visibility, a batch of one, which is the
// latency a synchronous writer sees. Burst: mutations per second of bursts
// is ops_s. A reference sample follows every pair and every burst.
func (r *run) writeSlice(deadline time.Time, hook writeHook) segStat {
	s := segStat{start: time.Now()}
	half := s.start.Add(deadline.Sub(s.start) / 2)
	allocDone := r.allocMark(&s)
	r.ref.sample(1)
	for time.Now().Before(half) {
		t := timed{start: time.Now()}
		t.d = r.visiblePair(r.rng, hook)
		t.end = time.Now()
		r.ref.sample(1)
		s.rounds = append(s.rounds, t)
		s.ops += 2
	}
	allocDone()
	for time.Now().Before(deadline) {
		t := timed{start: time.Now()}
		r.burst(hook)
		t.end = time.Now()
		t.d = t.end.Sub(t.start)
		r.ref.sample(1)
		s.work = append(s.work, t)
		s.tputOps += 2 * burstSize
	}
	s.ops += s.tputOps
	s.end = time.Now()
	return s
}

// burst is burstSize inserts then as many deletes, acknowledged at
// durability except the last, which waits for visibility, so batches fill
// from a single client.
func (r *run) burst(hook writeHook) {
	var targets [burstSize]int
	for i := range targets {
		targets[i] = 1 + r.rng.Intn(r.auctions)
		r.write(true, targets[i], false, -1)
	}
	for i, k := range targets {
		if i < len(targets)-1 {
			r.write(false, k, false, -1)
			continue
		}
		d, resp := r.write(false, k, true, r.baseNodes)
		if hook != nil {
			hook(d, resp)
		}
	}
}

// visiblePair inserts the fragment into a random open_auction and deletes
// it again, both acknowledged at visibility, and returns the two latencies
// added up. The node counts the responses carry are checked.
func (r *run) visiblePair(rng *rand.Rand, hook writeHook) time.Duration {
	k := 1 + rng.Intn(r.auctions)
	d1, resp := r.write(true, k, true, r.baseNodes+fragmentNodes)
	if hook != nil {
		hook(d1, resp)
	}
	d2, resp := r.write(false, k, true, r.baseNodes)
	if hook != nil {
		hook(d2, resp)
	}
	return d1 + d2
}

// writerStats is what mixed_rw's paced writer saw, per pair.
type writerStats struct {
	pairs   []timed   // from the time the pair was sent until its delete was visible
	late    []float64 // how long after its due time the pair was sent, ms
	fromDue []float64 // from the time the pair was due until its delete was visible, ms
}

// pacedWriter is mixed_rw's second load thread: open loop, one visible
// insert+delete pair every 1/mixedPairsPerSec seconds until stop closes.
// The gated latency of a pair counts from when it was sent. Counted from
// when it was due, as an open loop should be timed so that a stall counts
// against every pair it delays, the same run's p50 and p90 spread by 16-19 %
// between runs on this host, against 9-14 %; that reading and the lateness
// itself go to the traced run's client layer.
func (r *run) pacedWriter(stop <-chan struct{}, hook writeHook) writerStats {
	var ws writerStats
	rng := rand.New(rand.NewSource(r.cfg.seed ^ 0x5eed))
	interval := time.Second / mixedPairsPerSec
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		select {
		case <-stop:
			return ws
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		d := r.visiblePair(rng, hook)
		end := time.Now()
		ws.pairs = append(ws.pairs, timed{start: sent, end: end, d: d})
		ws.late = append(ws.late, ms(sent.Sub(due)))
		ws.fromDue = append(ws.fromDue, ms(end.Sub(due)))
	}
}

// withWriter runs fn while the paced writer runs beside it.
func (r *run) withWriter(hook writeHook, fn func()) writerStats {
	stop := make(chan struct{})
	done := make(chan writerStats, 1)
	go func() { done <- r.pacedWriter(stop, hook) }()
	fn()
	close(stop)
	return <-done
}

// runPlain is the untraced run: it yields the end-to-end metrics.
func (r *run) runPlain() error {
	setupS, err := r.setup(setupOpens - 1)
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)
	r.set("wal_bytes_per_write", float64(len(r.walImage))/recoverInserts)

	total := time.Duration(r.cfg.seconds * float64(time.Second))
	var stats []segStat
	var pairs []timed
	switch r.cfg.workload {
	case "read_join":
		stats = section(total, func(dl time.Time) segStat { return r.readSlice(dl, r.joinRound, nil) })
	case "read_point":
		stats = section(total, func(dl time.Time) segStat { return r.readSlice(dl, r.pointRound, nil) })
	case "write_area":
		// A closed loop completes more writes on a faster host and the live
		// heap grows with every write, so this workload's heap is taken
		// here, after a fixed number of writes.
		for i := 0; i < heapBursts; i++ {
			r.burst(nil)
		}
		r.set("heap_mb", heapMB())
		stats = section(total, func(dl time.Time) segStat { return r.writeSlice(dl, nil) })
	case "mixed_rw":
		ws := r.withWriter(nil, func() {
			stats = section(total, func(dl time.Time) segStat { return r.readSlice(dl, r.joinRound, nil) })
		})
		pairs = ws.pairs
	}
	r.report(stats, pairs)
	if _, taken := r.metrics["heap_mb"]; !taken {
		r.set("heap_mb", heapMB())
	}
	return nil
}
