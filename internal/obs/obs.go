// Package obs is the runtime observability layer: a low-overhead metric
// registry (atomic counters, gauges, bounded power-of-two histograms), a
// per-query execution Trace feeding the EXPLAIN ANALYZE renderer, and an
// optional Prometheus+pprof HTTP endpoint (serve.go).
//
// Two properties drive the design:
//
//   - Allocation-free hot paths. Components resolve metric pointers once at
//     construction and hold them; recording is one atomic add. Every metric
//     and trace method is nil-safe — a nil *Counter, *Histogram, *Trace or
//     *Span no-ops — so "observation off" costs a single nil check and the
//     instrumented code needs no branches of its own.
//   - Counters are atomics, not mutex-guarded maps. The identifier kernels
//     record from concurrent shard workers; a shared mutex would serialize
//     exactly the code the executor exists to parallelize, while an
//     uncontended atomic add costs a few nanoseconds and scales. The
//     registry's map is touched only at resolve time (registration), never
//     per observation.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready;
// all methods are nil-safe no-ops so disabled instrumentation costs one
// branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The zero value is ready; all
// methods are nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistBuckets is the fixed bucket count of every Histogram. Bucket b holds
// the values of bit length b — [2^(b-1), 2^b) — with bucket 0 holding zero
// and the last bucket absorbing everything of bit length ≥ HistBuckets-1,
// so the histogram is bounded whatever is observed. 48 buckets cover both
// latencies (2^47 ns ≈ 39 hours) and size classes.
const HistBuckets = 48

// Histogram is a bounded power-of-two histogram: Observe is one atomic add
// into a fixed bucket array, so concurrent observation never allocates and
// never takes a lock. Quantiles are therefore approximate (upper bound of
// the holding bucket) — precise enough to find where time goes, cheap
// enough to leave on in production.
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// histBucket returns the bucket index for v.
func histBucket(v uint64) int {
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(uint64(v))].Add(1)
	h.sum.Add(uint64(v))
}

// Count returns the number of observations (0 on nil). Concurrent with
// Observe the result is a consistent-enough snapshot, not an instant.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of every observed value (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) with within-bucket linear
// interpolation: the continuous rank q·(count−1) is located in its bucket
// and mapped linearly across the bucket's [lower, upper] value range,
// assuming observations spread uniformly inside the bucket.
//
// Error bound: the estimate is always inside the holding bucket, so it is
// off by at most one bucket width — under the power-of-two layout, a
// relative error below 2x in either direction, and typically far less. The
// previous behavior (reporting the bucket's upper bound) was biased: it
// systematically overstated tail quantiles by up to 2x near bucket edges;
// interpolation is unbiased for in-bucket-uniform data. With no
// observations it returns 0.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Load a consistent-enough snapshot once; concurrent Observe may land
	// between loads, which shifts the estimate by at most the racing
	// observations — acceptable for a monitoring read.
	var counts [HistBuckets]uint64
	var total uint64
	for b := range h.counts {
		counts[b] = h.counts[b].Load()
		total += counts[b]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total-1) // continuous rank in [0, total-1]
	var seen uint64
	for b := 0; b < HistBuckets; b++ {
		c := counts[b]
		if c == 0 {
			continue
		}
		if rank < float64(seen+c) {
			lo := bucketLower(b)
			hi := bucketUpper(b)
			// Treat the c observations as sitting at the midpoints of c
			// equal sub-intervals of [lo, hi]; interpolate the rank's
			// position among them.
			pos := (rank - float64(seen) + 0.5) / float64(c)
			if pos < 0 {
				pos = 0
			}
			if pos > 1 {
				pos = 1
			}
			return lo + uint64(float64(hi-lo)*pos)
		}
		seen += c
	}
	return bucketUpper(HistBuckets - 1)
}

// bucketLower is the smallest value bucket b holds.
func bucketLower(b int) uint64 {
	if b <= 0 {
		return 0
	}
	return 1 << uint(b-1)
}

// bucketUpper is the largest value bucket b holds (the last bucket is
// unbounded and reports its lower bound instead).
func bucketUpper(b int) uint64 {
	if b == 0 {
		return 0
	}
	if b >= HistBuckets-1 {
		return 1 << (HistBuckets - 2) // lower bound of the overflow bucket
	}
	return 1<<uint(b) - 1
}

// HistogramSummary is one histogram rendered for snapshots.
type HistogramSummary struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
}

// Summary returns the snapshot form (zero on nil).
func (h *Histogram) Summary() HistogramSummary {
	if h == nil {
		return HistogramSummary{}
	}
	return HistogramSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// Registry is a named collection of metrics. Get-or-create resolution
// (Counter, Gauge, Histogram, RegisterFunc) takes a mutex and is meant for
// construction time; the returned pointers are then recorded through
// lock-free. A nil *Registry resolves every metric to nil — the no-op
// registry — so "observation off" is the nil pointer, not a parallel
// implementation.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64

	// sorted caches the name-ordered entry list (with pre-rendered
	// Prometheus name strings) across scrapes. Registration is rare —
	// metrics resolve once at construction — while a scraper polls every
	// second; rebuilding and re-sorting the full map per poll allocated on
	// every scrape for no reason. The cache is invalidated (dirty=true) by
	// any registration and rebuilt lazily on the next scrape.
	sorted []regEntry
	dirty  bool
}

// metric kinds for regEntry.
const (
	kindCounter = iota
	kindGauge
	kindFunc
	kindHist
)

// regEntry is one registered metric in the scrape-ordered cache. The prom*
// fields are rendered once at cache build so the /metrics hot path appends
// digits into a pooled buffer and nothing else.
type regEntry struct {
	name string
	kind int

	c *Counter
	g *Gauge
	f func() int64
	h *Histogram

	promFamily string // sanitized family name, e.g. ruid_exec_ops
	promName   string // family plus rendered label set, if any
	promLabels string // rendered label pairs without braces ("" if none)
}

// entries returns the sorted entry cache, rebuilding it if a registration
// invalidated it. Callers must hold r.mu; the returned slice must not be
// mutated and is only valid while the lock is held (a concurrent rebuild
// replaces it, but never mutates a published slice).
func (r *Registry) entries() []regEntry {
	if !r.dirty && r.sorted != nil {
		return r.sorted
	}
	es := make([]regEntry, 0, len(r.counters)+len(r.gauges)+len(r.funcs)+len(r.hists))
	for name, c := range r.counters {
		es = append(es, regEntry{name: name, kind: kindCounter, c: c})
	}
	for name, g := range r.gauges {
		es = append(es, regEntry{name: name, kind: kindGauge, g: g})
	}
	for name, f := range r.funcs {
		es = append(es, regEntry{name: name, kind: kindFunc, f: f})
	}
	for name, h := range r.hists {
		es = append(es, regEntry{name: name, kind: kindHist, h: h})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].name < es[j].name })
	for i := range es {
		es[i].promFamily, es[i].promLabels, es[i].promName = promRender(es[i].name)
	}
	r.sorted = es
	r.dirty = false
	return es
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
		r.dirty = true
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
		r.dirty = true
	}
	return g
}

// Histogram returns the named histogram, creating it on first use (nil on a
// nil registry).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
		r.dirty = true
	}
	return h
}

// RegisterFunc registers a derived gauge read at snapshot time — process-
// wide statistics (pool hit rates, runtime numbers) that are maintained
// elsewhere. The first registration of a name wins; a nil registry or nil
// f is a no-op.
func (r *Registry) RegisterFunc(name string, f func() int64) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.funcs[name]; !ok {
		r.funcs[name] = f
		r.dirty = true
	}
}

// Snapshot returns every metric's current value keyed by name, suitable for
// JSON export. Histograms appear as HistogramSummary. A nil registry
// returns an empty map.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries() {
		switch e.kind {
		case kindCounter:
			out[e.name] = e.c.Value()
		case kindGauge:
			out[e.name] = e.g.Value()
		case kindFunc:
			out[e.name] = e.f()
		case kindHist:
			out[e.name] = e.h.Summary()
		}
	}
	return out
}
