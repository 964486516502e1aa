package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

func xmarkSrc(scale int, seed int64) string {
	return xmltree.Serialize(xmltree.XMark(scale, seed))
}

func TestHTTPRoundtrip(t *testing.T) {
	s := New(Config{Observe: obs.NewRegistry()})
	run, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	base := "http://" + run.Addr()
	client := &http.Client{Timeout: 30 * time.Second}

	do := func(method, path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	if code, _ := do("GET", "/healthz", ""); code != 200 {
		t.Fatalf("healthz: %d", code)
	}

	// Open a document; re-opening the same name conflicts.
	code, body := do("PUT", "/v1/docs/bench", xmarkSrc(2, 7))
	if code != http.StatusCreated {
		t.Fatalf("open: %d %s", code, body)
	}
	var info DocInfo
	if err := json.Unmarshal(body, &info); err != nil || info.Nodes == 0 {
		t.Fatalf("open response: %s (%v)", body, err)
	}
	if code, _ := do("PUT", "/v1/docs/bench", xmarkSrc(2, 5)); code != http.StatusConflict {
		t.Fatalf("duplicate open: %d, want 409", code)
	}

	// Query with paths; verify against a locally opened copy of the same
	// generated document.
	code, body = do("POST", "/v1/docs/bench/query",
		`{"query":"/site//item/name","includePaths":true}`)
	if code != 200 {
		t.Fatalf("query: %d %s", code, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count == 0 || len(qr.Paths) != qr.Count || qr.Postings == 0 {
		t.Fatalf("query response: %+v", qr)
	}
	// Resolving the answer and building the paths is part of the request:
	// it is stamped after execution, and the elapsed time covers it.
	stamps := lastQueryStages(t, do)
	if !(stamps["admitted"] > 0 && stamps["admitted"] < stamps["exec_done"] && stamps["exec_done"] < stamps["resolved"]) {
		t.Fatalf("includePaths stages out of order: %v", stamps)
	}

	// Structural write, then the same query sees the new epoch.
	ins := WriteRequest{Parent: "/site/regions", Pos: 0,
		XML: "<item><name>inserted</name></item>"}
	ib, _ := json.Marshal(ins)
	if code, body = do("POST", "/v1/docs/bench/insert", string(ib)); code != 200 {
		t.Fatalf("insert: %d %s", code, body)
	}
	code, body = do("POST", "/v1/docs/bench/query", `{"query":"/site//item/name"}`)
	if code != 200 {
		t.Fatalf("query after insert: %d %s", code, body)
	}
	var qr2 QueryResponse
	_ = json.Unmarshal(body, &qr2)
	if qr2.Count != qr.Count+1 {
		t.Fatalf("query after insert: count %d, want %d", qr2.Count, qr.Count+1)
	}
	if stamps := lastQueryStages(t, do); stamps["resolved"] != 0 || stamps["exec_done"] == 0 {
		t.Fatalf("count-only stages: %v, want exec_done and no resolved", stamps)
	}
	if qr2.Epoch <= qr.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", qr.Epoch, qr2.Epoch)
	}

	// Budget exceeded maps to 422.
	code, body = do("POST", "/v1/docs/bench/query", `{"query":"/site//item/name","maxPostings":1}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("budget query: %d %s, want 422", code, body)
	}

	// Unknown document maps to 404; bad body to 400; so do a write's own
	// mistakes (unparsable fragment, unmatched parent, position out of range)
	// even though the mutation pipeline reports them on the ticket.
	if code, _ = do("POST", "/v1/docs/nope/query", `{"query":"//a"}`); code != 404 {
		t.Fatalf("unknown doc: %d, want 404", code)
	}
	if code, _ = do("POST", "/v1/docs/bench/query", "{"); code != 400 {
		t.Fatalf("bad body: %d, want 400", code)
	}
	for name, w := range map[string]string{
		"bad fragment":     `{"parent":"/site","pos":0,"xml":"<open>"}`,
		"unmatched parent": `{"parent":"/site/nosuch","pos":0,"xml":"<x/>"}`,
		"bad position":     `{"parent":"/site","pos":9999,"xml":"<x/>"}`,
	} {
		if code, body = do("POST", "/v1/docs/bench/insert", w); code != 400 {
			t.Fatalf("%s: %d %s, want 400", name, code, body)
		}
	}
	if code, body = do("POST", "/v1/docs/bench/delete", `{"parent":"/site","pos":9999}`); code != 400 {
		t.Fatalf("delete out of range: %d %s, want 400", code, body)
	}

	// Listing and stats.
	code, body = do("GET", "/v1/docs", "")
	if code != 200 || !bytes.Contains(body, []byte(`"bench"`)) {
		t.Fatalf("list: %d %s", code, body)
	}
	if code, _ = do("GET", "/v1/docs/bench", ""); code != 200 {
		t.Fatalf("stats: %d", code)
	}

	// Observability is mounted on the same listener: /metrics serves the
	// Prometheus exposition, /metrics.json the same registry as JSON, and
	// nothing else serves metrics.
	code, body = do("GET", "/metrics", "")
	if code != 200 || !bytes.Contains(body, []byte("ruid_server_queries")) {
		t.Fatalf("metrics: %d %s", code, body)
	}
	if !bytes.Contains(body, []byte(`ruid_server_http_requests{endpoint="query",status="200"}`)) {
		t.Fatalf("metrics: missing per-endpoint status family: %s", body)
	}
	code, body = do("GET", "/metrics.json", "")
	if code != 200 || !bytes.Contains(body, []byte(`"server.queries"`)) {
		t.Fatalf("metrics.json: %d %s", code, body)
	}
	for _, gone := range []string{"/metrics.txt", "/debug/vars"} {
		if code, _ = do("GET", gone, ""); code != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", gone, code)
		}
	}

	// The flight recorder saw the traffic above.
	code, body = do("GET", "/v1/debug/requests", "")
	if code != 200 || !bytes.Contains(body, []byte(`"kind":"query"`)) {
		t.Fatalf("debug/requests: %d %s", code, body)
	}

	// Drop; the document is gone.
	if code, _ = do("DELETE", "/v1/docs/bench", ""); code != http.StatusNoContent {
		t.Fatalf("drop: %d", code)
	}
	if code, _ = do("GET", "/v1/docs/bench", ""); code != 404 {
		t.Fatalf("stats after drop: %d, want 404", code)
	}
}

// lastQueryStages returns the most recent query request in the flight
// recorder as stage name → 1-based position on its timeline.
func lastQueryStages(t *testing.T, do func(method, path, body string) (int, []byte)) map[string]int {
	t.Helper()
	code, body := do("GET", "/v1/debug/requests", "")
	var dump struct {
		Requests []obs.RequestSummary `json:"requests"`
	}
	if err := json.Unmarshal(body, &dump); code != 200 || err != nil {
		t.Fatalf("debug/requests: %d %v", code, err)
	}
	var last obs.RequestSummary
	for _, r := range dump.Requests {
		if r.Kind == "query" && r.ID > last.ID {
			last = r
		}
	}
	pos := map[string]int{}
	for i, st := range last.Stages {
		if i > 0 && st.OffsetUS < last.Stages[i-1].OffsetUS {
			t.Fatalf("stage timeline not monotone: %v", last.Stages)
		}
		pos[st.Name] = i + 1
	}
	return pos
}

// TestCountTouchesNoNode is late materialisation seen from outside: a
// count-only join or twig request through the handler resolves no node —
// query.nodes_resolved does not move — and the same request asking for
// paths resolves exactly the nodes it counts.
func TestCountTouchesNoNode(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Observe: reg})
	defer s.Close()
	if _, err := s.Open("d", xmarkSrc(2, 7)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	resolved := reg.Counter("query.nodes_resolved")
	for _, c := range []struct{ query, plan string }{
		{"/site//item/name", "join"},
		{"//bidder", "join"}, // seed-only: the count is the posting list's length
		{"//open_auction[bidder]/itemref", "twig"},
	} {
		var counts [2]int
		for i, includePaths := range []bool{false, true} {
			body, _ := json.Marshal(QueryRequest{Query: c.query, IncludePaths: includePaths})
			rec := httptest.NewRecorder()
			before := resolved.Value()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/docs/d/query", bytes.NewReader(body)))
			var resp QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != 200 || err != nil {
				t.Fatalf("%q: %d %s", c.query, rec.Code, rec.Body)
			}
			if resp.Plan != c.plan || resp.Count == 0 {
				t.Fatalf("%q: plan %q, count %d; want a non-empty %s answer", c.query, resp.Plan, resp.Count, c.plan)
			}
			counts[i] = resp.Count
			moved := resolved.Value() - before
			if !includePaths && (moved != 0 || resp.Paths != nil) {
				t.Fatalf("%q: a count resolved %d nodes and returned %d paths", c.query, moved, len(resp.Paths))
			}
			if includePaths && (moved != uint64(resp.Count) || len(resp.Paths) != resp.Count) {
				t.Fatalf("%q: count %d, but %d nodes resolved and %d paths", c.query, resp.Count, moved, len(resp.Paths))
			}
		}
		if counts[0] != counts[1] {
			t.Fatalf("%q: count %d without paths, %d with", c.query, counts[0], counts[1])
		}
	}
}

// TestCountedBudgetParity: a count-only request is run in count shape and
// keeps no answer, yet it is charged exactly what the same request asking
// for paths is charged. For the read_join queries, a seed-only chain and a
// twig whose output is its root, the two report the same count, postings
// and results; a maxResults one below that results figure refuses both with
// the same sentinel and HTTP status, and one equal to it admits both.
func TestCountedBudgetParity(t *testing.T) {
	queries := []string{
		"/site//item/name", "//listitem//text", "//open_auction[bidder]/itemref",
		"/site/people/person[profile]/name", "//bidder/increase",
		"//bidder", "//open_auction[bidder]",
	}
	s := New(Config{})
	defer s.Close()
	if _, err := s.Open("d", xmarkSrc(2, 7)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ask := func(req QueryRequest) (int, QueryResponse, string) {
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/docs/d/query", bytes.NewReader(body)))
		var resp QueryResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%q: %v", req.Query, err)
			}
		}
		return rec.Code, resp, rec.Body.String()
	}
	for _, q := range queries {
		_, counted, _ := ask(QueryRequest{Query: q})
		_, kept, _ := ask(QueryRequest{Query: q, IncludePaths: true})
		if counted.Count == 0 || counted.Count != kept.Count || counted.Postings != kept.Postings || counted.Results != kept.Results {
			t.Fatalf("%s: counted %+v, with paths %+v", q, counted, kept)
		}
		for _, paths := range []bool{false, true} {
			refused := QueryRequest{Query: q, IncludePaths: paths, MaxResults: counted.Results - 1}
			if _, err := s.Query(context.Background(), "d", refused); !errors.Is(err, budget.ErrResultBudget) {
				t.Fatalf("%s paths=%v: maxResults %d: err %v, want ErrResultBudget", q, paths, refused.MaxResults, err)
			}
			if code, _, body := ask(refused); code != http.StatusUnprocessableEntity || !strings.Contains(body, budget.ErrResultBudget.Error()) {
				t.Fatalf("%s paths=%v: maxResults %d: %d %s", q, paths, refused.MaxResults, code, body)
			}
			admitted := QueryRequest{Query: q, IncludePaths: paths, MaxResults: counted.Results}
			if code, resp, body := ask(admitted); code != http.StatusOK || resp.Count != counted.Count {
				t.Fatalf("%s paths=%v: maxResults %d: %d %s", q, paths, admitted.MaxResults, code, body)
			}
		}
	}
}

func TestQueryBudgetSentinels(t *testing.T) {
	s := New(Config{})
	if _, err := s.Open("d", xmarkSrc(2, 8)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Query(context.Background(), "d",
		QueryRequest{Query: "/site//item/name", MaxPostings: 1})
	if !errors.Is(err, budget.ErrPostingsBudget) {
		t.Fatalf("err = %v, want ErrPostingsBudget", err)
	}
	_, err = s.Query(context.Background(), "d",
		QueryRequest{Query: "//item", MaxResults: 1})
	if !errors.Is(err, budget.ErrResultBudget) {
		t.Fatalf("err = %v, want ErrResultBudget", err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = s.Query(ctx, "d", QueryRequest{Query: "/site//item/name"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestServerLimitsCapRequests: a request cannot out-ask the server's
// ceiling — MaxLimits caps explicit requests and fills unlimited ones.
func TestServerLimitsCapRequests(t *testing.T) {
	s := New(Config{MaxLimits: budget.Limits{MaxPostings: 10}})
	if _, err := s.Open("d", xmarkSrc(2, 8)); err != nil {
		t.Fatal(err)
	}
	for _, req := range []QueryRequest{
		{Query: "/site//item/name"},                       // inherits the cap
		{Query: "/site//item/name", MaxPostings: 1 << 40}, // asks above it
	} {
		if _, err := s.Query(context.Background(), "d", req); !errors.Is(err, budget.ErrPostingsBudget) {
			t.Fatalf("req %+v: err = %v, want ErrPostingsBudget", req, err)
		}
	}
}

// TestOverloadSheds drives a 1-slot, 1-queue server with a long-held slot
// and checks the third request is shed as 503 with Retry-After.
func TestOverloadSheds(t *testing.T) {
	s := New(Config{MaxInflight: 1, MaxQueue: 1, Observe: obs.NewRegistry()})
	if _, err := s.Open("d", xmarkSrc(2, 5)); err != nil {
		t.Fatal(err)
	}
	// Occupy the only slot directly.
	if err := s.adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One waiter fills the queue...
	queued := make(chan error, 1)
	go func() {
		_, err := s.Query(context.Background(), "d", QueryRequest{Query: "//item"})
		queued <- err
	}()
	for i := 0; s.adm.Queued() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	// ...so the next request is shed.
	_, err := s.Query(context.Background(), "d", QueryRequest{Query: "//item"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	s.adm.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued query after release: %v", err)
	}

	// The HTTP mapping: 503 + Retry-After.
	if err := s.adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = s.Query(context.Background(), "d", QueryRequest{Query: "//item"})
	}()
	for i := 0; s.adm.Queued() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	run, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/docs/d/query", run.Addr()),
		"application/json", strings.NewReader(`{"query":"//item"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	s.adm.Release()

	// The overload contract is visible in the metrics too, consistently:
	// the shed counter moved, and the shed HTTP request landed in the
	// per-endpoint status-code family.
	snap := s.cfg.Observe.Snapshot()
	if shed, _ := snap["server.shed"].(int64); shed < 2 {
		t.Fatalf("server.shed = %v, want >= 2 (direct + HTTP shed)", snap["server.shed"])
	}
	if n, _ := snap[obs.MetricName("server.http_requests",
		"endpoint", "query", "status", "503")].(uint64); n != 1 {
		t.Fatalf("http_requests{query,503} = %v, want 1", n)
	}
}

// TestInsertWaitVisibleStages is the tracing acceptance check: an
// insert?wait=visible on a group-commit server returns all eight
// write-pipeline stages with monotonically non-decreasing offsets, and the
// same breakdown is queryable afterwards at /v1/debug/requests.
func TestInsertWaitVisibleStages(t *testing.T) {
	s := New(Config{
		Observe:     obs.NewRegistry(),
		GroupCommit: GroupCommitConfig{Enabled: true, WALDir: t.TempDir(), MaxDelay: time.Millisecond},
	})
	defer s.Close()
	run, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	base := "http://" + run.Addr()

	req, _ := http.NewRequest("PUT", base+"/v1/docs/d", strings.NewReader(xmarkSrc(2, 7)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/docs/d/insert?wait=visible", "application/json",
		strings.NewReader(`{"parent":"/site","pos":0,"xml":"<traced><x/></traced>"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, body)
	}
	var wr WriteResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatalf("insert body: %v", err)
	}
	if wr.TraceID == 0 {
		t.Fatal("insert response has no trace id")
	}
	checkStages := func(where string, stages []obs.StageStamp) {
		want := []string{obs.StageEnqueue, obs.StageWALAppend, obs.StageFsyncDone,
			obs.StageDequeue, obs.StageBatched, obs.StageMerged, obs.StagePublished, obs.StageVisible}
		got := map[string]bool{}
		last := int64(-1)
		for _, st := range stages {
			got[st.Name] = true
			if st.OffsetUS < last {
				t.Fatalf("%s: stage %s offset %d < previous %d", where, st.Name, st.OffsetUS, last)
			}
			last = st.OffsetUS
		}
		for _, w := range want {
			if !got[w] {
				t.Fatalf("%s: missing stage %s in %v", where, w, stages)
			}
		}
	}
	checkStages("response", wr.Stages)

	// The same trace is in the flight recorder.
	resp, err = http.Get(base + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var dump struct {
		Requests []obs.RequestSummary `json:"requests"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("debug/requests: %v (%s)", err, body)
	}
	found := false
	for _, r := range dump.Requests {
		if r.ID == wr.TraceID {
			found = true
			if r.Kind != "insert" || r.Doc != "d" {
				t.Fatalf("flight record = %+v", r)
			}
			checkStages("flight", r.Stages)
		}
	}
	if !found {
		t.Fatalf("trace %d not in flight recorder: %s", wr.TraceID, body)
	}
}

// TestWriteErrorContract pins the status a failed write reports. Only the
// client's own mistakes are 4xx-as-in-fix-your-request: a document that
// takes no writes is 409, a document closing under the request is 503 with
// Retry-After, and a failure of the storage below the document is 500 — all
// three used to be 400.
func TestWriteErrorContract(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	install := func(name string, d *document.Document) {
		s.catalog.mu.Lock()
		s.catalog.docs[name] = d
		s.catalog.mu.Unlock()
	}
	post := func(doc string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/docs/"+doc+"/insert?wait=visible",
			strings.NewReader(`{"parent":"/site/people","pos":0,"xml":"<person/>"}`)))
		return rec
	}

	// A cold-opened bundle is read-only.
	warm, err := document.OpenString(groupSrc, document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var bundle bytes.Buffer
	if err := warm.SaveBundle(&bundle); err != nil {
		t.Fatal(err)
	}
	cold, err := document.OpenBundle(&bundle, document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	install("cold", cold)
	if rec := post("cold"); rec.Code != http.StatusConflict {
		t.Fatalf("insert into a cold document: %d %s, want 409", rec.Code, rec.Body)
	}

	// A WAL that fails its append is the server's problem, not the client's.
	wal, err := storage.CreateWAL(filepath.Join(t.TempDir(), "d.wal"), storage.SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	logged, err := document.OpenString(groupSrc, document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := logged.EnableGroupCommit(document.GroupConfig{WAL: wal}); err != nil {
		t.Fatal(err)
	}
	install("logged", logged)
	if rec := post("logged"); rec.Code != http.StatusOK {
		t.Fatalf("insert over a healthy WAL: %d %s", rec.Code, rec.Body)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := post("logged"); rec.Code != http.StatusInternalServerError {
		t.Fatalf("insert over a failed WAL: %d %s, want 500", rec.Code, rec.Body)
	}

	// The classes that need a race to provoke, through the mapping itself.
	for _, c := range []struct {
		err   error
		want  int
		retry bool
	}{
		{document.ErrDocumentClosed, http.StatusServiceUnavailable, true},
		{ErrOverloaded, http.StatusServiceUnavailable, true},
		{fmt.Errorf("%w: WAL fsync: %w", document.ErrStorage, io.ErrShortWrite), http.StatusInternalServerError, false},
		{internalError{errors.New("query: index holds (1, 9, false), which the numbering resolves to no node")}, http.StatusInternalServerError, false},
		{errors.New("document: no element matches \"/x\""), http.StatusBadRequest, false},
	} {
		rec := httptest.NewRecorder()
		writeErr(rec, httptest.NewRequest("POST", "/", nil), c.err)
		if rec.Code != c.want || (rec.Header().Get("Retry-After") != "") != c.retry {
			t.Errorf("writeErr(%v) = %d (Retry-After %q), want %d (retry %v)",
				c.err, rec.Code, rec.Header().Get("Retry-After"), c.want, c.retry)
		}
	}
}

// TestQueryPathsComeFromTheEpoch is the stale-path regression: after writes
// that copy the ancestors of a subtree at different epochs, a node's path
// must be the one the queried epoch gives it. Before Snapshot.Path, when
// shared nodes kept Parent pointers into whichever epoch last copied each
// ancestor, //d reported /a[0]/d[3] here and the k below it /a[0]/d[2]/….
func TestQueryPathsComeFromTheEpoch(t *testing.T) {
	s := New(Config{DocumentOptions: document.Options{Partition: core.PartitionConfig{MaxAreaNodes: 3}}})
	if _, err := s.Open("doc", `<a><b><k/></b><c><k/></c><d><e><f><g><k/><k/><k/></g></f></e></d></a>`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range []struct{ parent, xml string }{{"/a/c", "<y/>"}, {"/a", "<x/>"}, {"/a/b", "<z/>"}} {
		if _, err := s.InsertReq(ctx, "doc", WriteRequest{Parent: w.parent, XML: w.xml, WaitVisible: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		query string
		want  []string
	}{
		{"//d", []string{"/a[0]/d[3]"}},
		{"//g/k", []string{"/a[0]/d[3]/e[0]/f[0]/g[0]/k[0]", "/a[0]/d[3]/e[0]/f[0]/g[0]/k[1]", "/a[0]/d[3]/e[0]/f[0]/g[0]/k[2]"}},
		{"//c/k", []string{"/a[0]/c[2]/k[1]"}},
		{"/a", []string{"/a[0]"}},
	} {
		resp, err := s.Query(ctx, "doc", QueryRequest{Query: c.query, IncludePaths: true})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(resp.Paths, c.want) {
			t.Errorf("%s: paths %v, want %v", c.query, resp.Paths, c.want)
		}
	}
}
