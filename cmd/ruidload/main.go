// Command ruidload is the open-loop load generator for ruidd: it offers
// queries at a fixed rate regardless of how fast the server answers (one
// goroutine per request), which is the honest way to measure overload —
// a closed loop slows its own offered rate exactly when the server
// saturates and hides the queueing cliff.
//
// Usage:
//
//	ruidload [-addr host:port | -self] [-doc bench] [-scale 3] [-seed 11]
//	         [-query "/site//item/name"] [-qps 400] [-duration 3s]
//	         [-sweep 100,200,400,800] [-write-ratio 0.5] [-wait-visible]
//	         [-batch N] [-wal DIR]
//	         [-max-postings N] [-timeout 250ms] [-json]
//
// With -self it starts an in-process server (obs-hardened, same code path
// as ruidd) on a loopback port, so a saturation run is a single command.
// If the target document is missing it is generated (XMark, -scale/-seed)
// and uploaded first. With -sweep it runs one fixed-duration round per
// offered rate and prints a qps vs latency table — the E9 protocol in
// EXPERIMENTS.md; -json emits the same rows machine-readable, the format
// committed as BENCH_saturation.json.
//
// -write-ratio (alias -write-frac) issues that fraction of requests as
// structural inserts — the write-heavy mode for measuring read-latency
// interference from a loaded write path (EXPERIMENTS.md E16). With -batch
// or -wal the -self server runs the group-commit write path, so writes
// coalesce into batched epoch publications; -wait-visible makes each write
// request ack at publication instead of at durability. Traced write
// responses carry their pipeline stage breakdown, and each round's -json
// row aggregates per-stage offset percentiles (enqueue, wal_append,
// fsync_done, dequeue, merged, published, visible) under "stages".
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/xmltree"
)

// round is one sweep level's measured outcome.
type round struct {
	OfferedQPS  int     `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"` // completed OK per second
	Sent        int     `json:"sent"`
	OK          int     `json:"ok"`
	Shed        int     `json:"shed"`             // 503: admission refused
	Budget      int     `json:"budget"`           // 422: postings/result budget
	Deadline    int     `json:"deadline"`         // 504: wall clock
	Errors      int     `json:"errors"`           // transport or unexpected status
	Writes      int     `json:"writes,omitempty"` // requests issued as inserts
	P50US       int64   `json:"p50_us"`
	P95US       int64   `json:"p95_us"`
	P99US       int64   `json:"p99_us"`
	// Stages aggregates the write-pipeline stage offsets reported by traced
	// insert responses: for each stage name, the percentile of its offset
	// from request start across the round's writes. Present only when the
	// round issued writes against a tracing server.
	Stages map[string]stagePct `json:"stages,omitempty"`
}

// stagePct is one stage's offset-from-start distribution over a round.
type stagePct struct {
	N     int   `json:"n"`
	P50US int64 `json:"p50_us"`
	P95US int64 `json:"p95_us"`
	P99US int64 `json:"p99_us"`
}

func main() {
	addr := flag.String("addr", "", "target server host:port (empty with -self starts one in-process)")
	self := flag.Bool("self", false, "serve in-process on a loopback port instead of targeting -addr")
	doc := flag.String("doc", "bench", "catalog document name")
	scale := flag.Int("scale", 3, "XMark scale for generated setup document")
	seed := flag.Int64("seed", 11, "XMark seed for generated setup document")
	query := flag.String("query", "/site//item/name", "query to offer")
	qps := flag.Int("qps", 400, "offered queries per second (single round)")
	duration := flag.Duration("duration", 3*time.Second, "length of each round")
	sweep := flag.String("sweep", "", "comma-separated offered-qps levels (overrides -qps)")
	writeFrac := flag.Float64("write-frac", 0, "fraction of requests issued as inserts (alias of -write-ratio)")
	writeRatio := flag.Float64("write-ratio", 0, "fraction of requests issued as inserts (write-heavy mode)")
	waitVisible := flag.Bool("wait-visible", false, "writes ack at epoch publication instead of durability")
	batch := flag.Int("batch", 0, "-self only: group-commit batch size (>0 enables the batched write path)")
	batchDelay := flag.Duration("batch-delay", 0, "-self only: group-commit batch linger beside concurrent writers (a lone writer never waits it out)")
	walDir := flag.String("wal", "", "-self only: per-document WAL directory (enables group commit + durability acks)")
	maxPostings := flag.Int64("max-postings", 0, "per-query postings budget sent with each request")
	timeout := flag.Duration("timeout", 0, "per-query timeout sent with each request")
	inflight := flag.Int("inflight", 0, "-self only: server MaxInflight")
	queue := flag.Int("queue", 0, "-self only: server MaxQueue")
	jsonOut := flag.Bool("json", false, "print rounds as JSON instead of a table")
	flag.Parse()

	if *writeRatio > 0 {
		*writeFrac = *writeRatio
	}
	base, cleanup, err := target(*addr, *self, *inflight, *queue, server.GroupCommitConfig{
		Enabled:  *batch > 0 || *walDir != "",
		MaxBatch: *batch,
		MaxDelay: *batchDelay,
		WALDir:   *walDir,
	})
	if err != nil {
		fatal(err)
	}
	defer cleanup()
	if err := ensureDoc(base, *doc, *scale, *seed); err != nil {
		fatal(err)
	}

	levels := []int{*qps}
	if *sweep != "" {
		levels = levels[:0]
		for _, f := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fatal(fmt.Errorf("bad -sweep level %q", f))
			}
			levels = append(levels, n)
		}
	}

	qbody, _ := json.Marshal(server.QueryRequest{
		Query:       *query,
		MaxPostings: *maxPostings,
		TimeoutMS:   timeout.Milliseconds(),
	})
	rounds := make([]round, 0, len(levels))
	for _, lvl := range levels {
		r := run(base, *doc, qbody, lvl, *duration, *writeFrac, *waitVisible)
		rounds = append(rounds, r)
		if !*jsonOut {
			fmt.Printf("offered %5d qps: ok %6d (%.0f/s)  shed %5d  budget %4d  deadline %4d  err %3d  writes %5d  p50 %6dus  p95 %6dus  p99 %6dus\n",
				r.OfferedQPS, r.OK, r.AchievedQPS, r.Shed, r.Budget, r.Deadline, r.Errors, r.Writes, r.P50US, r.P95US, r.P99US)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rounds)
	}
}

// target resolves the base URL, starting an in-process server for -self.
func target(addr string, self bool, inflight, queue int, gc server.GroupCommitConfig) (string, func(), error) {
	if self || addr == "" {
		s := server.New(server.Config{
			MaxInflight: inflight,
			MaxQueue:    queue,
			Observe:     obs.NewRegistry(),
			GroupCommit: gc,
		})
		running, err := s.Serve("127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintf(os.Stderr, "ruidload: self-serving on %s\n", running.Addr())
		return "http://" + running.Addr(), func() { _ = running.Close(); _ = s.Close() }, nil
	}
	return "http://" + addr, func() {}, nil
}

// ensureDoc uploads a generated XMark document unless name already exists.
func ensureDoc(base, name string, scale int, seed int64) error {
	resp, err := http.Get(base + "/v1/docs/" + name)
	if err != nil {
		return fmt.Errorf("probe %s: %w", base, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	src := xmltree.Serialize(xmltree.XMark(scale, seed))
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/docs/"+name, strings.NewReader(src))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("setup upload: %d %s", resp.StatusCode, body)
	}
	fmt.Fprintf(os.Stderr, "ruidload: uploaded %q (scale %d, %d bytes)\n", name, scale, len(src))
	return nil
}

// run offers one round at a fixed rate and aggregates the outcomes.
func run(base, doc string, qbody []byte, offered int, d time.Duration, writeFrac float64, waitVisible bool) round {
	type outcome struct {
		status  int
		elapsed time.Duration
		failed  bool
		stages  []obs.StageStamp // write responses only: pipeline breakdown
	}
	interval := time.Second / time.Duration(offered)
	total := int(d / interval)
	results := make([]outcome, total)
	client := &http.Client{Timeout: 30 * time.Second}
	rng := rand.New(rand.NewSource(1))
	writes := 0
	var wg sync.WaitGroup
	tick := time.NewTicker(interval)
	defer tick.Stop()
	start := time.Now()
	for i := 0; i < total; i++ {
		<-tick.C
		url := base + "/v1/docs/" + doc + "/query"
		body := qbody
		isWrite := false
		if writeFrac > 0 && rng.Float64() < writeFrac {
			isWrite = true
			url = base + "/v1/docs/" + doc + "/insert"
			writes++
			wr, _ := json.Marshal(server.WriteRequest{
				Parent: "/site/regions", Pos: 0,
				XML:         fmt.Sprintf("<item><name>load-%d</name></item>", writes),
				WaitVisible: waitVisible,
			})
			body = wr
		}
		wg.Add(1)
		go func(i int, url string, body []byte, isWrite bool) {
			defer wg.Done()
			t0 := time.Now()
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				results[i] = outcome{failed: true, elapsed: time.Since(t0)}
				return
			}
			o := outcome{status: resp.StatusCode}
			if isWrite && resp.StatusCode == http.StatusOK {
				// Write responses carry the trace's stage breakdown; keep it
				// for the per-stage percentile aggregation.
				var wr server.WriteResponse
				if json.NewDecoder(resp.Body).Decode(&wr) == nil {
					o.stages = wr.Stages
				}
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			o.elapsed = time.Since(t0)
			results[i] = o
		}(i, url, body, isWrite)
	}
	wg.Wait()
	wall := time.Since(start)

	r := round{OfferedQPS: offered, Sent: total, Writes: writes}
	var lat []time.Duration
	for _, o := range results {
		switch {
		case o.failed:
			r.Errors++
		case o.status == http.StatusOK:
			r.OK++
			lat = append(lat, o.elapsed)
		case o.status == http.StatusServiceUnavailable:
			r.Shed++
		case o.status == http.StatusUnprocessableEntity:
			r.Budget++
		case o.status == http.StatusGatewayTimeout:
			r.Deadline++
		default:
			r.Errors++
		}
	}
	r.AchievedQPS = float64(r.OK) / wall.Seconds()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	r.P50US = pct(lat, 50).Microseconds()
	r.P95US = pct(lat, 95).Microseconds()
	r.P99US = pct(lat, 99).Microseconds()

	// Per-stage latency percentiles over the round's traced writes.
	byStage := map[string][]int64{}
	for _, o := range results {
		for _, st := range o.stages {
			byStage[st.Name] = append(byStage[st.Name], st.OffsetUS)
		}
	}
	if len(byStage) > 0 {
		r.Stages = make(map[string]stagePct, len(byStage))
		for name, offs := range byStage {
			sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
			r.Stages[name] = stagePct{
				N:     len(offs),
				P50US: pctI64(offs, 50),
				P95US: pctI64(offs, 95),
				P99US: pctI64(offs, 99),
			}
		}
	}
	return r
}

// pctI64 picks the p-th percentile of sorted int64 offsets (0 when empty).
func pctI64(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// pct picks the p-th percentile of sorted latencies (0 when empty).
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ruidload: %v\n", err)
	os.Exit(1)
}
