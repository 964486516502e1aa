package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	r.RegisterFunc("f", func() int64 { return 1 })
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("nil metrics recorded: %d %d %d", c.Value(), g.Value(), h.Count())
	}
	if len(r.Snapshot()) != 0 {
		t.Fatalf("nil registry snapshot non-empty")
	}
	var sb strings.Builder
	r.WriteProm(&sb) // must not panic
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter not idempotent")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("gauge not idempotent")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Fatal("histogram not idempotent")
	}
	r.Counter("hits").Add(7)
	r.Gauge("depth").Set(-2)
	r.RegisterFunc("derived", func() int64 { return 11 })
	r.RegisterFunc("derived", func() int64 { return 99 }) // first registration wins
	snap := r.Snapshot()
	if snap["hits"] != uint64(7) {
		t.Errorf("hits = %v", snap["hits"])
	}
	if snap["depth"] != int64(-2) {
		t.Errorf("depth = %v", snap["depth"])
	}
	if snap["derived"] != int64(11) {
		t.Errorf("derived = %v", snap["derived"])
	}
	var sb strings.Builder
	r.WriteProm(&sb)
	for _, want := range []string{"ruid_hits 7", "ruid_depth -2", "ruid_derived 11"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("WriteProm missing %q in:\n%s", want, sb.String())
		}
	}
}

// TestHistogramZeroObservations pins the empty histogram: every statistic
// is zero and rendering does not divide by the observation count.
func TestHistogramZeroObservations(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram count=%d sum=%d", h.Count(), h.Sum())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("Quantile(%v) = %d on empty histogram", q, got)
		}
	}
	s := h.Summary()
	if s != (HistogramSummary{}) {
		t.Errorf("empty summary %+v", s)
	}
}

// TestHistogramOverflowBucket pins the bounded-bucket contract: values of
// any magnitude land in the final bucket instead of indexing out of range,
// and quantiles stay finite.
func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	huge := int64(1) << 62 // bit length 63 ≫ HistBuckets
	h.Observe(huge)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != uint64(huge) {
		t.Fatalf("sum = %d", h.Sum())
	}
	got := h.Quantile(0.5)
	if got != bucketUpper(HistBuckets-1) {
		t.Fatalf("overflow quantile = %d, want overflow bucket bound %d", got, bucketUpper(HistBuckets-1))
	}
	// A negative observation clamps to zero (bucket 0) rather than
	// corrupting the array.
	h.Observe(-5)
	if h.Count() != 2 {
		t.Fatalf("count after negative = %d", h.Count())
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("min quantile = %d, want 0", q)
	}
}

// TestHistogramQuantiles sanity-checks interpolation against a known
// uniform distribution: with 1..1024 observed once each, the true
// q-quantile is ≈ q·1024, and the interpolated estimate must land within
// one bucket width of it — not at the holding bucket's upper bound, which
// is the bias the interpolation replaced.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1024; v++ {
		h.Observe(v)
	}
	if h.Count() != 1024 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 480 || p50 > 560 {
		t.Errorf("p50 = %d, want ≈ 512 within [480, 560]", p50)
	}
	// True p99 is ≈ 1013; the old upper-bound report said 1023 for any
	// rank in bucket 10 and would have said 2047 had the tail crossed into
	// bucket 11. Interpolation must stay below the bucket bound.
	p99 := h.Quantile(0.99)
	if p99 < 950 || p99 > 1023 {
		t.Errorf("p99 = %d, want ≈ 1013 within [950, 1023]", p99)
	}
	if h.Quantile(1) < h.Quantile(0) {
		t.Errorf("quantiles not monotone")
	}
}

// TestHistogramQuantileEdgeCases pins the boundary behavior of the
// interpolated quantile: a single observation, extreme q, and out-of-range
// q values.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Single observation: every quantile is inside that observation's
	// bucket, and q=0 equals q=1 (there is only one order statistic).
	var h Histogram
	h.Observe(100) // bucket 7: [64, 127]
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < 64 || got > 127 {
			t.Errorf("single-obs Quantile(%v) = %d, want within bucket [64, 127]", q, got)
		}
	}
	if h.Quantile(0) != h.Quantile(1) {
		t.Errorf("single-obs q=0 (%d) != q=1 (%d)", h.Quantile(0), h.Quantile(1))
	}

	// q=0 must sit in the minimum's bucket and q=1 in the maximum's.
	var h2 Histogram
	h2.Observe(1)    // bucket 1: [1, 1]
	h2.Observe(1000) // bucket 10: [512, 1023]
	if got := h2.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %d, want 1 (the minimum's bucket is exact)", got)
	}
	if got := h2.Quantile(1); got < 512 || got > 1023 {
		t.Errorf("Quantile(1) = %d, want within the maximum's bucket [512, 1023]", got)
	}

	// Out-of-range q clamps rather than panicking or extrapolating.
	if h2.Quantile(-1) != h2.Quantile(0) || h2.Quantile(2) != h2.Quantile(1) {
		t.Errorf("out-of-range q not clamped: q=-1→%d q=0→%d q=2→%d q=1→%d",
			h2.Quantile(-1), h2.Quantile(0), h2.Quantile(2), h2.Quantile(1))
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines; under -race this doubles as the lock-freedom proof, and the
// final count must not lose observations.
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(seed + int64(i))
				if i%128 == 0 {
					_ = h.Count() // concurrent reads must be safe too
					_ = h.Quantile(0.9)
				}
			}
		}(int64(w * 1000))
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Value() != 8000 || r.Gauge("g").Value() != 8000 {
		t.Fatalf("c=%d g=%d", r.Counter("c").Value(), r.Gauge("g").Value())
	}
}
