package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// config is one run's input; the run is a pure function of it.
type config struct {
	workload string
	seed     int64
	seconds  float64
	scale    int
	traced   bool
	outDir   string // WAL directories and span files go here
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the record the command prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// query is one read request with the answer the oracle expects.
type query struct {
	text  string
	body  []byte      // the JSON QueryRequest
	want  int         // result count on the unmodified document
	slack int         // how far a concurrent writer may raise the count
	plan  string      // plan kind the planner must choose
	chain []chainStep // join plans: the pipeline the ladder replays
}

// run holds one workload execution: the generated document, the server
// under test and the counters every request reports into.
type run struct {
	cfg config
	rng *rand.Rand
	src string // the serialised document, as a client would upload it

	baseNodes int // nodes from the root element down: Stats.Nodes of the unmodified document
	auctions  int

	joins   []*query   // read_join / mixed_rw rotation
	points  [][]*query // read_point: one pool per template
	bidders *query     // //bidder, the recovery check

	walDir string
	srv    *server.Server
	h      http.Handler

	attempted atomic.Int64
	failed    atomic.Int64
	metrics   map[string]metric
	counts    map[string]int     // op counts reached, for the env record
	raw       map[string]float64 // unscaled clock readings, for the env record
	ref       *reference
	walImage  []byte        // the WAL file the durability check left: recoverInserts records
	recoverD  time.Duration // what the durability check's recovery took
	tr        *tracer       // nil on untraced runs
}

func newRun(cfg config, ref *reference) *run {
	return &run{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		metrics: map[string]metric{},
		counts:  map[string]int{},
		raw:     map[string]float64{},
		ref:     ref,
	}
}

// set records a metric; its unit comes from the tables in spec.go, so an
// unlisted name is a bug caught by the first run.
func (r *run) set(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		if unit, ok = perLayerUnits[name]; !ok {
			panic("bench: metric " + name + " has no unit in spec.go")
		}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one wrong or refused operation; the first few are explained
// on standard error.
func (r *run) fail(format string, args ...any) {
	if r.failed.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "bench: FAIL "+format+"\n", args...)
	}
}

// generate builds the document from the seed and, on the bench's own copy
// of the tree, asks the pointer-tree reference evaluator for the expected
// count of every query the run will send. The tree is released afterwards
// so heap_mb measures the server, not the oracle.
func (r *run) generate() error {
	tree := xmltree.XMark(r.cfg.scale, r.cfg.seed)
	r.src = xmltree.Serialize(tree)
	site := tree.DocumentElement()
	r.baseNodes = xmltree.CountNodes(site)

	eng := xpath.NewEngine(tree, xpath.PointerNavigator{})
	mk := func(text, plan string) (*query, error) {
		nodes, err := eng.Query(text)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", text, err)
		}
		body, err := json.Marshal(server.QueryRequest{Query: text})
		if err != nil {
			return nil, err
		}
		return &query{text: text, body: body, want: len(nodes), plan: plan}, nil
	}

	for i := range joinSpecs {
		q, err := mk(joinSpecs[i].query, joinSpecs[i].plan)
		if err != nil {
			return err
		}
		q.chain = joinSpecs[i].chain
		if joinSpecs[i].grows && r.cfg.workload == "mixed_rw" {
			q.slack = 1
		}
		r.joins = append(r.joins, q)
	}
	var err error
	if r.bidders, err = mk("//bidder", "join"); err != nil {
		return err
	}

	regions := site.FirstChildElement("regions").ChildElements("")
	persons := len(site.FirstChildElement("people").ChildElements("person"))
	r.auctions = len(site.FirstChildElement("open_auctions").ChildElements("open_auction"))
	item := func() string {
		reg := regions[r.rng.Intn(len(regions))]
		return fmt.Sprintf("/site/regions/%s/item[%d]", reg.Name, 1+r.rng.Intn(len(reg.ChildElements("item"))))
	}
	templates := []func() string{
		func() string { return item() + "/name" },
		func() string { return item() + "/description/parlist/listitem[1]/text" },
		func() string { return fmt.Sprintf("/site/people/person[%d]/ancestor::*", 1+r.rng.Intn(persons)) },
		func() string {
			return fmt.Sprintf("/site/open_auctions/open_auction[%d]/bidder[1]/increase", 1+r.rng.Intn(r.auctions))
		},
	}
	for _, tmpl := range templates {
		pool := make([]*query, 0, pointPool)
		for len(pool) < pointPool {
			q, err := mk(tmpl(), "nav")
			if err != nil {
				return err
			}
			if q.want == 0 {
				return fmt.Errorf("oracle: %q matches nothing", q.text)
			}
			pool = append(pool, q)
		}
		r.points = append(r.points, pool)
	}
	return nil
}

// newServer builds the server exactly as `ruidd -wal DIR` does: Observe
// registry on, group commit on, WAL sync "group", batch 64 (the default).
func newServer(walDir string, reg *obs.Registry) *server.Server {
	return server.New(server.Config{
		MaxTimeout: maxQueryTimeout,
		Observe:    reg,
		GroupCommit: server.GroupCommitConfig{
			Enabled:    true,
			WALDir:     walDir,
			SyncPolicy: walSync,
		},
	})
}

// startServer starts a fresh server on a WAL directory of its own.
func (r *run) startServer() error {
	dir, err := os.MkdirTemp(r.cfg.outDir, "wal-")
	if err != nil {
		return err
	}
	r.walDir = dir
	r.srv = newServer(dir, obs.NewRegistry())
	r.h = r.srv.Handler()
	return nil
}

// stopServer shuts the server down and removes its WAL directory.
func (r *run) stopServer() {
	if r.srv == nil {
		return
	}
	if err := r.srv.Close(); err != nil {
		r.fail("close: %v", err)
	}
	if err := os.RemoveAll(r.walDir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
	r.srv, r.h = nil, nil
}

// call drives one request through the server's handler in process, with an
// in-memory ResponseWriter: routing, JSON, the tracing middleware,
// admission and budgets are inside the timed call, kernel TCP is not.
func call(h http.Handler, method, path string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes(), time.Since(t0)
}

const (
	docPath    = "/v1/docs/" + docName
	queryPath  = docPath + "/query"
	insertPath = docPath + "/insert"
	deletePath = docPath + "/delete"
)

// open uploads the document and checks the node count the server reports.
func (r *run) open(h http.Handler, wantNodes int) time.Duration {
	code, body, d := call(h, http.MethodPut, docPath, []byte(r.src))
	r.attempted.Add(1)
	var info server.DocInfo
	if code != http.StatusCreated || json.Unmarshal(body, &info) != nil || info.Nodes != wantNodes {
		r.fail("open: status %d, %d nodes, want 201 and %d", code, info.Nodes, wantNodes)
	}
	return d
}

// timed is one unit of work as the clock read it: a round, a burst, a pair
// of writes or an open. d is the latency reported for it: the handler calls
// alone, without the client's own checks between them. start and end say
// which reference samples lie around it.
type timed struct {
	start, end time.Time
	d          time.Duration
}

// coldOpen starts a fresh server and times the upload of the document, with
// refAround reference samples on each side and a collection before, so that
// every open starts from the same heap.
func (r *run) coldOpen() (timed, error) {
	if err := r.startServer(); err != nil {
		return timed{}, err
	}
	runtime.GC()
	r.ref.sample(refAround)
	start := time.Now()
	d := r.open(r.h, r.baseNodes)
	r.ref.sample(refAround)
	return timed{start: start, end: start.Add(d), d: d}, nil
}

// setup opens the document cold on throwaway servers, one after the other,
// each closed and released before the next, and then on the server the
// workload will use, which has therefore opened the document once and
// nothing else. setup_s is the median open at reference speed. The first
// throwaway server also takes the durability check.
func (r *run) setup(throwaway int) (float64, error) {
	var scaled, raw []float64
	for i := 0; i <= throwaway; i++ {
		t, err := r.coldOpen()
		if err != nil {
			return 0, err
		}
		raw = append(raw, t.d.Seconds())
		scaled = append(scaled, t.d.Seconds()*r.ref.factor(t.start, t.end, refAround))
		if i == 0 {
			if err := r.durabilityCheck(); err != nil {
				return 0, err
			}
		}
		if i < throwaway {
			r.stopServer()
		}
	}
	r.raw["setup_s"] = median(raw)
	return median(scaled), nil
}

// durabilityCheck proves on a throwaway server that acknowledged writes
// survive: recoverInserts inserts are acknowledged, the server is closed, a
// new one is started on the same WAL directory and handed the base document
// again, and //bidder must then count every one of them. The WAL file the
// inserts left is kept for wal_bytes_per_write and the traced run's replay
// probe, and so is the time from Close until the verification query answered.
func (r *run) durabilityCheck() error {
	nodes := r.baseNodes + fragmentNodes*recoverInserts
	for i := 1; i <= recoverInserts; i++ {
		if i < recoverInserts {
			r.write(true, 1+r.rng.Intn(r.auctions), false, -1)
			continue
		}
		r.write(true, 1+r.rng.Intn(r.auctions), true, nodes)
	}
	image, err := os.ReadFile(filepath.Join(r.walDir, docName+".wal"))
	if err != nil {
		return err
	}
	r.walImage = image

	t0 := time.Now()
	if err := r.srv.Close(); err != nil {
		r.fail("close before recovery: %v", err)
	}
	r.srv = newServer(r.walDir, obs.NewRegistry())
	r.h = r.srv.Handler()
	r.open(r.h, nodes)
	bidders := *r.bidders
	bidders.want += recoverInserts
	r.read(&bidders)
	r.recoverD = time.Since(t0)

	rec := r.srv.Recoveries()
	if len(rec) != 1 || rec[0].Applied != recoverInserts || rec[0].Skipped != 0 || rec[0].TornOff != 0 {
		r.fail("recovery replayed %+v, want %d applied, none skipped or torn", rec, recoverInserts)
	}
	return nil
}

// read sends one query to the server under test.
func (r *run) read(q *query) (time.Duration, server.QueryResponse) { return r.readOn(r.h, q) }

// readOn sends one query through h and checks status, count and plan kind.
func (r *run) readOn(h http.Handler, q *query) (time.Duration, server.QueryResponse) {
	code, body, d := call(h, http.MethodPost, queryPath, q.body)
	r.attempted.Add(1)
	var resp server.QueryResponse
	if code != http.StatusOK || json.Unmarshal(body, &resp) != nil ||
		resp.Count < q.want || resp.Count > q.want+q.slack || resp.Plan != q.plan {
		r.fail("query %q: status %d, count %d, plan %q; want 200, %d..%d, %q",
			q.text, code, resp.Count, resp.Plan, q.want, q.want+q.slack, q.plan)
	}
	return d, resp
}

// write sends one mutation of open_auction[auction]: an insert of the
// fragment at position 1 (right after <initial>) or the delete that undoes
// it. wantNodes, when non-negative, is the node count a visible write must
// report.
func (r *run) write(insert bool, auction int, visible bool, wantNodes int) (time.Duration, server.WriteResponse) {
	req := server.WriteRequest{
		Parent: fmt.Sprintf("/site/open_auctions/open_auction[%d]", auction),
		Pos:    1,
	}
	path := deletePath
	if insert {
		req.XML, path = fragment, insertPath
	}
	if visible {
		path += "?wait=visible"
	}
	body, _ := json.Marshal(req) // a struct of strings and ints cannot fail
	code, out, d := call(r.h, http.MethodPost, path, body)
	r.attempted.Add(1)
	var resp server.WriteResponse
	if code != http.StatusOK || json.Unmarshal(out, &resp) != nil || (wantNodes >= 0 && resp.Nodes != wantNodes) {
		r.fail("write insert=%v auction %d: status %d, %d nodes, want 200 and %d", insert, auction, code, resp.Nodes, wantNodes)
	}
	return d, resp
}

// segStat is what one time slice of the measured section produced.
type segStat struct {
	start, end time.Time
	ops        int     // requests completed
	rounds     []timed // what latency is taken over: rounds, or write_area's visible pairs

	// Throughput is tputOps requests per the time of work: every round for
	// readers, the bursts alone for write_area.
	work    []timed
	tputOps int

	// Allocation is allocBytes per allocOps requests of every client: the
	// whole slice for readers (mixed_rw's writer included, whose requests
	// allocate about as much as a read), the visible phase alone for
	// write_area, whose two phases allocate differently per mutation and
	// split the slice by time, not by count.
	allocBytes uint64
	allocOps   int64
}

// allocMark starts an allocation measurement; the returned function ends it
// and stores bytes and requests in s.
func (r *run) allocMark(s *segStat) func() {
	bytes, ops := allocatedBytes(), r.attempted.Load()
	return func() {
		s.allocBytes, s.allocOps = allocatedBytes()-bytes, r.attempted.Load()-ops
	}
}

// allocatedBytes is the cumulative bytes allocated by the process; unlike
// runtime.ReadMemStats it does not stop the world.
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// section runs the measured section: `segments` slices of equal length,
// each filled by slice(deadline). Slice 0, the warm-up, is dropped.
func section(total time.Duration, slice func(deadline time.Time) segStat) []segStat {
	per := total / segments
	stats := make([]segStat, 0, segments)
	for s := 0; s < segments; s++ {
		stats = append(stats, slice(time.Now().Add(per)))
	}
	return stats[1:]
}

// latencies returns what the clock read for each unit of work, in ms, and
// the same at reference speed: each scaled by the reference samples taken
// right before and right after it.
func (r *run) latencies(work []timed) (raw, scaled []float64) {
	for _, t := range work {
		raw = append(raw, ms(t.d))
		scaled = append(scaled, ms(t.d)*r.ref.factor(t.start, t.end, 1))
	}
	return raw, scaled
}

// report turns measured slices into the end-to-end metrics: each slice
// yields a throughput and the p50/p90 of its latencies, and the run reports
// the median over slices, which one disturbed slice cannot move. pairs, when
// not nil, are the write pairs of mixed_rw's writer: latency is then taken
// over the pairs sent within each slice, not over the reader's rounds. The same statistics of the unscaled clock readings go to the env
// record.
func (r *run) report(stats []segStat, pairs []timed) {
	var tput, p50, p90, rawTput, raw50, raw90 []float64
	ops, latencySamples := 0, 0
	var allocBytes uint64
	var allocOps int64
	for _, s := range stats {
		rawWork, work := r.latencies(s.work)
		tput = append(tput, 1000*float64(s.tputOps)/sum(work))
		rawTput = append(rawTput, 1000*float64(s.tputOps)/sum(rawWork))

		over := s.rounds
		if pairs != nil {
			lo := sort.Search(len(pairs), func(i int) bool { return !pairs[i].start.Before(s.start) })
			hi := sort.Search(len(pairs), func(i int) bool { return !pairs[i].start.Before(s.end) })
			over = pairs[lo:hi]
		}
		raw, scaled := r.latencies(over)
		sort.Float64s(raw)
		sort.Float64s(scaled)
		p50 = append(p50, percentile(scaled, 0.50))
		p90 = append(p90, percentile(scaled, 0.90))
		raw50 = append(raw50, percentile(raw, 0.50))
		raw90 = append(raw90, percentile(raw, 0.90))
		ops += s.ops
		latencySamples += len(over)
		allocBytes += s.allocBytes
		allocOps += s.allocOps
	}
	r.set("ops_s", median(tput))
	r.set("p50_ms", median(p50))
	r.set("p90_ms", median(p90))
	r.set("alloc_kb_per_op", float64(allocBytes)/1024/float64(allocOps))
	r.raw["ops_s"], r.raw["p50_ms"], r.raw["p90_ms"] = median(rawTput), median(raw50), median(raw90)
	r.raw["ref_slowdown"] = r.ref.slowdown()
	r.counts["measured_ops"] = ops
	r.counts["latency_samples_per_segment"] = latencySamples / len(stats)
}

// heapMB is the live heap after two collections: the second one frees what
// the first one's finalizers released.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// cpuTime is the user+system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile interpolates the p-quantile of an ascending slice; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func mean(v []float64) float64 { return sum(v) / float64(len(v)) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}
