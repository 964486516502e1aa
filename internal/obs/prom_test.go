package obs

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestMetricName(t *testing.T) {
	if got := MetricName("server.http_requests"); got != "server.http_requests" {
		t.Fatalf("no-label name = %q", got)
	}
	got := MetricName("server.http_requests", "endpoint", "query", "status", "200")
	if got != "server.http_requests|endpoint=query,status=200" {
		t.Fatalf("labeled name = %q", got)
	}
}

// TestWritePromFormat checks the exposition line by line: families gain the
// ruid_ prefix, '|'-encoded labels render as real label sets, histograms
// emit cumulative buckets closed by +Inf, and every line is structurally a
// valid 0.0.4 sample or comment.
func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("exec.ops").Add(3)
	r.Gauge("server.inflight").Set(2)
	r.RegisterFunc("storage.pool_pages", func() int64 { return 7 })
	r.Counter(MetricName("server.http_requests", "endpoint", "query", "status", "200")).Add(5)
	r.Counter(MetricName("server.http_requests", "endpoint", "query", "status", "503")).Add(1)
	h := r.Histogram("exec.op_ns")
	h.Observe(3) // bucket 2 (le 3)
	h.Observe(5) // bucket 3 (le 7)

	var sb strings.Builder
	r.WriteProm(&sb)
	out := sb.String()

	for _, want := range []string{
		"# TYPE ruid_exec_ops counter\n",
		"ruid_exec_ops 3\n",
		"# TYPE ruid_server_inflight gauge\n",
		"ruid_server_inflight 2\n",
		"ruid_storage_pool_pages 7\n",
		"# TYPE ruid_server_http_requests counter\n",
		`ruid_server_http_requests{endpoint="query",status="200"} 5` + "\n",
		`ruid_server_http_requests{endpoint="query",status="503"} 1` + "\n",
		"# TYPE ruid_exec_op_ns histogram\n",
		`ruid_exec_op_ns_bucket{le="3"} 1` + "\n",
		`ruid_exec_op_ns_bucket{le="7"} 2` + "\n",
		`ruid_exec_op_ns_bucket{le="+Inf"} 2` + "\n",
		"ruid_exec_op_ns_sum 8\n",
		"ruid_exec_op_ns_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm missing %q in:\n%s", want, out)
		}
	}
	// One TYPE line per family, even with several labeled series.
	if n := strings.Count(out, "# TYPE ruid_server_http_requests "); n != 1 {
		t.Errorf("TYPE for labeled family emitted %d times", n)
	}

	// Structural validity: every line is "# ..." or "name[{labels}] value"
	// with a parseable value.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if !strings.HasPrefix(name, "ruid_") {
			t.Fatalf("family without ruid_ prefix: %q", line)
		}
	}
}

func TestWritePromHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 0; i < 100; i++ {
		h.Observe(int64(i))
	}
	var sb strings.Builder
	r.WriteProm(&sb)
	prev := int64(-1)
	buckets := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "ruid_lat_bucket{") {
			continue
		}
		buckets++
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("buckets not cumulative: %q after %d", line, prev)
		}
		prev = v
	}
	if buckets < 2 {
		t.Fatalf("only %d bucket lines", buckets)
	}
	if prev != 100 {
		t.Fatalf("+Inf bucket = %d, want 100", prev)
	}
}

func TestWritePromNilRegistry(t *testing.T) {
	var r *Registry
	var sb strings.Builder
	r.WriteProm(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q", sb.String())
	}
}

// TestRegistryCacheInvalidation ensures the sorted entry cache does not go
// stale: a metric registered after a scrape must appear in the next one.
func TestRegistryCacheInvalidation(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.first").Inc()
	var sb strings.Builder
	r.WriteProm(&sb)
	if !strings.Contains(sb.String(), "ruid_a_first 1") {
		t.Fatalf("first scrape missing metric:\n%s", sb.String())
	}
	r.Counter("b.second").Add(2)
	r.Gauge("c.third").Set(3)
	r.RegisterFunc("d.fourth", func() int64 { return 4 })
	r.Histogram("e.fifth").Observe(1)
	sb.Reset()
	r.WriteProm(&sb)
	for _, want := range []string{"ruid_a_first 1", "ruid_b_second 2", "ruid_c_third 3", "ruid_d_fourth 4", "ruid_e_fifth_count 1"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("post-registration scrape missing %q:\n%s", want, sb.String())
		}
	}
}

// TestWritePromAllocs is the scrape-allocation regression gate: with the
// sorted entry cache warm and the buffer pooled, a steady-state scrape of a
// realistically sized registry must not allocate per metric. (Skipped under
// -race, where sync.Pool deliberately drops entries.)
func TestWritePromAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race; alloc counts are not stable")
	}
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Counter(MetricName("server.http_requests", "endpoint", "e"+strconv.Itoa(i%4), "status", strconv.Itoa(200+i))).Add(uint64(i))
	}
	for i := 0; i < 16; i++ {
		h := r.Histogram("h.lat" + strconv.Itoa(i))
		h.Observe(int64(i) * 100)
	}
	r.WriteProm(io.Discard) // warm the cache and the buffer pool
	avg := testing.AllocsPerRun(50, func() { r.WriteProm(io.Discard) })
	if avg > 4 {
		t.Fatalf("WriteProm allocates %.1f/scrape over 80 metrics, want ≤ 4", avg)
	}
}
