package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/twig"
	"repro/internal/xpath"
)

// span is one timed interval at a layer boundary. Spans of one request
// share its request number; parent is the span that caused this one.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps the traced run's spans and per-layer samples in memory;
// they are written out when the run ends. The mutex is for mixed_rw, whose
// reader and writer both record.
type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	spans    []span
	requests int
	samples  map[string][]float64 // per-layer timings, by metric name

	readMS      []float64 // latency of every read in the plain stretch
	postings    int64     // what the plain stretch's responses reported
	results     int64
	sampleEvery int // ladder stride; 0 while the ladder is off
	seen        int

	// The ladder's axis engine, kept per epoch as the planner keeps its
	// own, so its lazily built rank map is paid once and not per sample.
	nav      *xpath.Engine
	navEpoch uint64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), samples: map[string][]float64{}}
}

func (t *tracer) request() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	return t.requests
}

func (t *tracer) span(request, parent int, name string, start time.Time, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartUS: us(start.Sub(t.origin)), EndUS: us(start.Add(d).Sub(t.origin)),
	})
	return id
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// timed runs fn as a child span of parent and returns how long it took.
func (t *tracer) timed(request, parent int, name string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	d := time.Since(start)
	return t.span(request, parent, name, start, d), d
}

func (t *tracer) writeFile(path string, cfg config) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "scale": cfg.scale, "spans": t.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// traceWrite turns one write response into spans: the stage stamps the
// server returns (enqueue → wal_append → fsync_done → dequeue → merged →
// published → visible) are the layer boundaries, so writes need no replay.
func (r *run) traceWrite(d time.Duration, resp server.WriteResponse) {
	t := r.tr
	start := time.Now().Add(-d)
	req := t.request()
	root := t.span(req, 0, "server.http", start, d)
	at := map[string]float64{}
	for i, st := range resp.Stages {
		at[st.Name] = float64(st.OffsetUS)
		from := int64(0)
		if i > 0 {
			from = resp.Stages[i-1].OffsetUS
		}
		t.span(req, root, "write."+st.Name,
			start.Add(time.Duration(from)*time.Microsecond), time.Duration(st.OffsetUS-from)*time.Microsecond)
	}
	if _, ok := at["visible"]; !ok {
		return
	}
	t.sample("storage.wal_append_us", at["wal_append"]-at["enqueue"])
	t.sample("storage.wal_fsync_us", at["fsync_done"]-at["wal_append"])
	// The op is queued before its fsync is awaited, so the commit loop may
	// dequeue it first; it cannot merge before both.
	t.sample("server.write_queue_us", at["dequeue"]-at["wal_append"])
	t.sample("document.merge_us", at["merged"]-max(at["dequeue"], at["fsync_done"]))
	t.sample("document.publish_us", at["published"]-at["merged"])
}

// traceRead records a read of the traced run. In the plain stretch it only
// keeps what the response says; in the laddered stretch every
// sampleEvery-th request is replayed down the public entry points.
func (r *run) traceRead(q *query, d time.Duration, resp server.QueryResponse) {
	t := r.tr
	if t.sampleEvery == 0 {
		t.readMS = append(t.readMS, ms(d))
		t.postings += resp.Postings
		t.results += int64(resp.Count)
		return
	}
	if t.seen++; t.seen%t.sampleEvery == 0 {
		r.ladder(q, d)
	}
}

// ladder replays one request down the rungs Handler.ServeHTTP →
// Server.Query → Snapshot.Query → {Snapshot.Plan, xpath.Parse, kernel,
// NodeOfID}, one span per rung. A rung's self time is its duration minus
// the rungs below it; what the lowest rungs fail to explain of
// Snapshot.Query is the ladder's residual.
func (r *run) ladder(q *query, httpD time.Duration) {
	t := r.tr
	req := t.request()
	httpSpan := t.span(req, 0, "server.http", time.Now().Add(-httpD), httpD)

	var err error
	serverSpan, serverD := t.timed(req, httpSpan, "server.query", func() {
		_, err = r.srv.Query(context.Background(), docName, server.QueryRequest{Query: q.text})
	})
	r.attempted.Add(1)
	if err != nil {
		r.fail("ladder: Server.Query %q: %v", q.text, err)
		return
	}

	doc, err := r.srv.Catalog().Get(docName)
	if err != nil {
		r.fail("ladder: %v", err)
		return
	}
	snap := doc.Snapshot()
	count := 0
	docSpan, docD := t.timed(req, serverSpan, "document.query", func() {
		nodes, _, _ := snap.Query(q.text)
		count = len(nodes)
	})
	_, planD := t.timed(req, docSpan, "query.plan", func() { _, _ = snap.Plan(q.text) })
	below := planD

	if q.plan == "nav" {
		var path xpath.Path
		_, parseD := t.timed(req, docSpan, "xpath.parse", func() { path, err = xpath.Parse(q.text) })
		if err != nil {
			r.fail("ladder: parse %q: %v", q.text, err)
			return
		}
		if t.nav == nil || t.navEpoch != snap.Epoch() {
			t.nav = xpath.NewEngine(snap.Tree(), xpath.SchemeNavigator{S: snap.Numbering()})
			t.navEpoch = snap.Epoch()
		}
		kernel := 0
		_, evalD := t.timed(req, docSpan, "xpath.eval", func() { kernel = len(t.nav.Select(snap.Tree(), path)) })
		if kernel != count {
			r.fail("ladder: %q: engine found %d, Snapshot.Query %d", q.text, kernel, count)
		}
		t.sample("xpath.parse_us", us(parseD))
		t.sample("xpath.eval_us", us(evalD))
		t.sample("document.query_point_us", us(docD))
		below += parseD + evalD
	} else {
		var ids []core.ID
		var kernelD time.Duration
		if q.plan == "twig" {
			pattern, err := twig.Compile(q.text)
			if err != nil {
				r.fail("ladder: twig %q: %v", q.text, err)
				return
			}
			_, kernelD = t.timed(req, docSpan, "twig.match", func() {
				ids, _ = twig.MatchIDsWith(pattern, snap.Index(), exec.Default())
			})
			t.sample("twig.match_us", us(kernelD))
		} else {
			_, kernelD = t.timed(req, docSpan, "index.join", func() { ids = runChain(snap, q.chain) })
			t.sample("index.join_us", us(kernelD))
		}
		num := snap.Numbering()
		resolved := 0
		_, resolveD := t.timed(req, docSpan, "core.resolve", func() {
			for _, id := range ids {
				if _, ok := num.NodeOfID(id); ok {
					resolved++
				}
			}
		})
		if resolved != count {
			r.fail("ladder: %q: kernel resolved %d nodes, Snapshot.Query %d", q.text, resolved, count)
		}
		t.sample("document.query_join_us", us(docD))
		below += kernelD + resolveD
	}
	if count < q.want || count > q.want+q.slack {
		r.fail("ladder: Snapshot.Query %q found %d, want %d..%d", q.text, count, q.want, q.want+q.slack)
	}

	t.sample("server.query_us", us(serverD))
	t.sample("server.http_self_us", us(httpD-serverD))
	t.sample("server.admit_self_us", us(serverD-docD))
	t.sample("query.plan_us", us(planD))
	t.sample("client.ladder_residual_pct", 100*float64(docD-below)/float64(docD))
}

// runChain runs a join pipeline the way the planner does for a join plan:
// seed postings, then one upward or parent semi-join per step, all on
// identifiers, through the executor's public kernels.
func runChain(snap *document.Snapshot, chain []chainStep) []core.ID {
	num, ix, ex := snap.Numbering(), snap.Index(), exec.Default()
	cur := ix.Postings(chain[0].name)
	if !chain[0].descendant {
		// A root-anchored first step admits only the root element.
		var anchored []core.ID
		if root := num.Root(); root.Name == chain[0].name {
			if id, ok := num.RUID(root); ok {
				anchored = []core.ID{id}
			}
		}
		cur = index.SlicePostings(anchored)
	}
	for _, st := range chain[1:] {
		if cur.Len() == 0 {
			return nil
		}
		if st.descendant {
			cur = index.SlicePostings(ex.UpwardSemiJoin(num, cur, ix.Postings(st.name)))
		} else {
			cur = index.SlicePostings(ex.ParentSemiJoin(num, cur, ix.Postings(st.name)))
		}
	}
	return cur.Materialize()
}

// scrape reads the counters, gauges and funcs of GET /metrics.json through
// the handler; histograms, which are objects there, are left out.
func (r *run) scrape() map[string]float64 {
	code, body, _ := call(r.h, http.MethodGet, "/metrics.json", nil)
	r.attempted.Add(1)
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); code != http.StatusOK || err != nil {
		r.fail("GET /metrics.json: status %d, %v", code, err)
	}
	out := map[string]float64{}
	for name, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[name] = f
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced is the traced run: it yields every per-layer metric. A metric
// the workload does not exercise is 0, which is the claim made for it: that
// layer did no work here. Build costs and unit costs are measured on every
// workload.
func (r *run) runTraced() error {
	r.tr = newTracer()
	for name := range perLayerUnits {
		r.set(name, 0)
	}
	own, err := r.buildLayers()
	if err != nil {
		return err
	}
	r.unitProbes(own)
	if _, err := r.setup(1); err != nil {
		return err
	}
	r.set("document.recover_s", r.recoverD.Seconds())
	if err := r.replayProbe(own); err != nil {
		return err
	}
	if err := r.obsOverhead(); err != nil {
		return err
	}

	stretch := time.Duration(r.cfg.seconds * tracedShare * float64(time.Second))
	deadline := func(d time.Duration) time.Time { return time.Now().Add(d) }
	t := r.tr
	var before, after map[string]float64
	var mem0, mem1 runtime.MemStats
	var plain, laddered segStat
	var cpu time.Duration
	var ws writerStats

	// plainStretch brackets the stretch whose counts and client numbers are
	// reported: no replays run in it, so /metrics deltas are the workload's.
	plainStretch := func(slice func(time.Time) segStat) {
		slice(deadline(stretch / 2)) // warm-up
		before = r.scrape()
		runtime.ReadMemStats(&mem0)
		cpu0 := cpuTime()
		plain = slice(deadline(stretch))
		cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&mem1)
		after = r.scrape()
	}
	readStretches := func(round func() []*query) {
		plainStretch(func(dl time.Time) segStat { return r.readSlice(dl, round, r.traceRead) })
		t.sampleEvery = ladderEvery
		laddered = r.readSlice(deadline(stretch), round, r.traceRead)
	}
	switch r.cfg.workload {
	case "read_join":
		readStretches(r.joinRound)
	case "read_point":
		readStretches(r.pointRound)
	case "write_area":
		plainStretch(func(dl time.Time) segStat { return r.writeSlice(dl, r.traceWrite) })
	case "mixed_rw":
		ws = r.withWriter(r.traceWrite, func() { readStretches(r.joinRound) })
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	r.set("exec.ops_per_query", ratio(delta("exec.ops"), delta("query.count")))
	r.set("exec.shards_per_op", ratio(delta("exec.shards"), delta("exec.ops")))
	r.set("exec.pool_miss_ratio", ratio(delta("exec.pool_misses"), delta("exec.pool_gets")))
	r.set("index.blocks_skipped_ratio", ratio(delta("index.blocks_skipped"),
		delta("index.blocks_skipped")+delta("index.blocks_admitted")))
	r.set("index.postings_per_result", ratio(float64(t.postings), float64(t.results)))
	r.set("index.reencoded_per_write", ratio(delta("index.delta_postings_reencoded"), delta("write.applied")))
	r.set("document.batch_size_mean", ratio(delta("write.applied"), delta("write.batches")))
	r.set("document.publish_incremental_ratio", ratio(delta("doc.publish_incremental"),
		delta("doc.publish_incremental")+delta("doc.publish_full")))
	r.set("storage.fsyncs_per_write", ratio(delta("write.wal_fsyncs"), delta("write.wal_appends")))
	r.set("storage.wal_bytes_per_write", ratio(delta("write.wal_bytes"), delta("write.wal_appends")))

	for name, v := range t.samples {
		r.set(name, median(v))
	}
	sort.Float64s(t.readMS)
	r.set("client.read_p99_ms", percentile(t.readMS, 0.99))
	pairs := ws.fromDue
	if r.cfg.workload == "write_area" {
		pairs, _ = r.latencies(plain.rounds)
	}
	sort.Float64s(pairs)
	sort.Float64s(ws.late)
	r.set("client.write_visible_p50_ms", percentile(pairs, 0.50))
	r.set("client.write_visible_p90_ms", percentile(pairs, 0.90))
	r.set("client.write_p99_ms", percentile(pairs, 0.99))
	r.set("client.writer_late_p90_ms", percentile(ws.late, 0.90))
	r.set("client.gc_cycles", float64(mem1.NumGC-mem0.NumGC))
	r.set("client.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)
	r.set("client.cpu_ms_per_op", ms(cpu)/float64(plain.ops))
	r.set("client.ref_slowdown", r.ref.slowdown())
	if laddered.ops > 0 {
		qps := func(s segStat) float64 { return float64(s.ops) / s.end.Sub(s.start).Seconds() }
		r.set("client.trace_overhead_pct", 100*(qps(plain)-qps(laddered))/qps(plain))
	}
	r.counts["plain_ops"], r.counts["laddered_ops"], r.counts["spans"] = plain.ops, laddered.ops, len(t.spans)
	return t.writeFile(filepath.Join(r.cfg.outDir, "trace-"+r.cfg.workload+".json"), r.cfg)
}
