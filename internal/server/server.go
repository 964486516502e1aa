// Package server is the multi-document query server over the document
// facade: a catalog of independently numbered XML documents served
// concurrently over HTTP, every query executing against a pinned epoch
// under an enforced resource budget.
//
// The layering realizes the repo's end state as a service:
//
//	HTTP API  →  admission (bounded inflight + bounded queue, deadline-
//	aware shedding)  →  catalog (name → document)  →  snapshot pin  →
//	budgeted planner run (budget.Meter threaded through the executor
//	into the seek-based join kernels).
//
// Overload degrades gracefully rather than collapsing: requests beyond
// the inflight and queue bounds are shed immediately with 503 and a
// Retry-After hint, queued requests whose deadlines lapse leave the queue
// without executing, and admitted queries are bounded in postings decoded,
// result rows materialized and wall clock — a runaway query terminates
// inside the join kernels with a sentinel the API maps to 422 or 504.
// Saturation behavior is measured by cmd/ruidload (EXPERIMENTS.md E16).
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/document"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Config configures a Server. The zero value serves with sensible bounds.
type Config struct {
	// MaxInflight bounds concurrently executing requests; 0 means
	// GOMAXPROCS (each request may itself parallelize over the executor's
	// pool, so inflight × workers is the true CPU fan-out ceiling).
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot; beyond it
	// requests are shed with 503. 0 means 4 × MaxInflight.
	MaxQueue int
	// DefaultLimits apply to queries that do not set their own budget
	// fields. Zero fields are unlimited.
	DefaultLimits budget.Limits
	// MaxLimits cap what a request may ask for (0 fields uncapped): the
	// server's hard ceiling against a client requesting an unbounded run.
	MaxLimits budget.Limits
	// DefaultTimeout is the per-query wall-clock budget when the request
	// does not set one; 0 means no server-imposed deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-query deadline a request may ask for.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (documents uploads included);
	// 0 means 64 MiB.
	MaxBodyBytes int64
	// Observe, when non-nil, receives the server's metrics (and is mounted
	// at /metrics, /metrics.json and /debug on the same listener).
	Observe *obs.Registry
	// FlightRecords sizes the always-on flight recorder ring (completed
	// request summaries, served at /v1/debug/requests); 0 selects
	// obs.DefaultFlightRecords.
	FlightRecords int
	// SlowThreshold gates the slow-request log (/v1/debug/slow): requests
	// at or over it keep their full stage breakdown in a separate ring.
	// 0 selects obs.DefaultSlowThreshold.
	SlowThreshold time.Duration
	// DocumentOptions are the facade options for every document the server
	// opens; the Observe registry above is attached automatically.
	DocumentOptions document.Options
	// GroupCommit, when Enabled, starts a commit loop (and, with a WALDir, a
	// WAL) for every opened document: mutations are durability-acked at WAL
	// append and publish in coalesced epochs, and WriteRequest.WaitVisible
	// picks the ack point per request. Disabled, the same mutation pipeline
	// applies each write inline as a batch of one.
	GroupCommit GroupCommitConfig
}

// GroupCommitConfig is the server-level switch for the documents' group
// commit write path.
type GroupCommitConfig struct {
	// Enabled starts a commit loop for every opened document.
	Enabled bool
	// MaxBatch / MaxDelay / QueueDepth are document.GroupConfig knobs
	// (zero = that config's defaults).
	MaxBatch   int
	MaxDelay   time.Duration
	QueueDepth int
	// WALDir, when non-empty, gives each document a write-ahead log at
	// WALDir/<name>.wal. Opening a name whose log already exists REPLAYS it
	// over the fresh base image before serving — the crash-recovery path:
	// every mutation the log acknowledged is reapplied, in one epoch.
	WALDir string
	// SyncPolicy is the WAL fsync discipline: "group" (default), "always",
	// "none". See storage.ParseSyncPolicy.
	SyncPolicy string
}

// Server executes catalog requests. Create with New; start HTTP service
// with Serve or mount Handler on a listener of your own.
type Server struct {
	cfg     Config
	catalog *Catalog
	adm     *admission
	reg     *obs.Registry
	sm      *serverMetrics

	// flight is the always-on request recorder: every completed HTTP
	// request files a summary; slow ones keep their full stage breakdown.
	flight *obs.FlightRecorder

	// WAL replays performed by Opens (crash-recovery audit trail).
	recMu      sync.Mutex
	recoveries []RecoveryInfo
}

// serverMetrics holds the registry pointers the server records into; nil
// when unobserved (each obs type is nil-safe, same idiom as the engine).
type serverMetrics struct {
	queries        *obs.Counter
	queryNS        *obs.Histogram
	writes         *obs.Counter
	budgetPostings *obs.Counter
	budgetResults  *obs.Counter
	deadlines      *obs.Counter
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInflight
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	cfg.DocumentOptions.Observe = cfg.Observe
	s := &Server{
		cfg:     cfg,
		catalog: NewCatalog(),
		adm:     newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		reg:     cfg.Observe,
		flight:  obs.NewFlightRecorder(cfg.FlightRecords, cfg.SlowThreshold),
	}
	if r := cfg.Observe; r != nil {
		s.sm = &serverMetrics{
			queries:        r.Counter("server.queries"),
			queryNS:        r.Histogram("server.query_ns"),
			writes:         r.Counter("server.writes"),
			budgetPostings: r.Counter("server.budget_postings_exceeded"),
			budgetResults:  r.Counter("server.budget_results_exceeded"),
			deadlines:      r.Counter("server.deadline_exceeded"),
		}
		r.RegisterFunc("server.inflight", s.adm.Inflight)
		r.RegisterFunc("server.queued", s.adm.Queued)
		r.RegisterFunc("server.shed", s.adm.shed.Load)
		r.RegisterFunc("server.admitted", s.adm.admitted.Load)
		r.RegisterFunc("server.docs", func() int64 { return int64(s.catalog.Len()) })
	}
	return s
}

// Catalog exposes the server's document catalog (tests and embedders).
func (s *Server) Catalog() *Catalog { return s.catalog }

// Flight exposes the server's flight recorder (tests and embedders; never
// nil).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// recordRequest files a finished request into the flight recorder and the
// per-endpoint/per-document metric families. The endpoint label set is the
// fixed route vocabulary; the doc label is only minted for documents that
// actually exist in the catalog, so random 404 probes cannot explode the
// label cardinality.
func (s *Server) recordRequest(endpoint string, rc *obs.RequestCtx, status int) {
	rc.Finish(status)
	s.flight.RecordRequest(rc)
	if s.reg == nil {
		return
	}
	s.reg.Counter(obs.MetricName("server.http_requests",
		"endpoint", endpoint, "status", strconv.Itoa(status))).Inc()
	s.reg.Histogram(obs.MetricName("server.http_ns", "endpoint", endpoint)).
		Observe(rc.Duration().Nanoseconds())
	if doc := rc.Doc(); doc != "" {
		if _, err := s.catalog.Get(doc); err == nil {
			s.reg.Counter(obs.MetricName("server.doc_requests", "doc", doc)).Inc()
			s.reg.Histogram(obs.MetricName("server.doc_ns", "doc", doc)).
				Observe(rc.Duration().Nanoseconds())
		}
	}
}

// QueryRequest is one query execution request. Budget fields at zero
// inherit the server's defaults; set fields are capped by the server's
// MaxLimits/MaxTimeout.
type QueryRequest struct {
	Query string `json:"query"`
	// MaxPostings bounds postings decoded/scanned by the join kernels.
	MaxPostings int64 `json:"maxPostings,omitempty"`
	// MaxResults bounds identifier rows materialized.
	MaxResults int64 `json:"maxResults,omitempty"`
	// TimeoutMS bounds wall clock, enforced via context deadline.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// IncludePaths returns the result nodes' slash paths. It is the only
	// thing that resolves the answer's identifiers to nodes: a count alone —
	// the load-test mode — touches none.
	IncludePaths bool `json:"includePaths,omitempty"`
}

// QueryResponse reports one executed query.
type QueryResponse struct {
	Count     int      `json:"count"`
	Plan      string   `json:"plan"`
	Epoch     uint64   `json:"epoch"`
	Postings  int64    `json:"postings"`
	Results   int64    `json:"results"`
	ElapsedUS int64    `json:"elapsedUs"`
	Paths     []string `json:"paths,omitempty"`
}

// effectiveLimits resolves a request's budget against defaults and caps.
func (s *Server) effectiveLimits(req QueryRequest) (budget.Limits, time.Duration) {
	lim := budget.Limits{MaxPostings: req.MaxPostings, MaxResults: req.MaxResults}
	if lim.MaxPostings == 0 {
		lim.MaxPostings = s.cfg.DefaultLimits.MaxPostings
	}
	if lim.MaxResults == 0 {
		lim.MaxResults = s.cfg.DefaultLimits.MaxResults
	}
	if m := s.cfg.MaxLimits.MaxPostings; m > 0 && (lim.MaxPostings == 0 || lim.MaxPostings > m) {
		lim.MaxPostings = m
	}
	if m := s.cfg.MaxLimits.MaxResults; m > 0 && (lim.MaxResults == 0 || lim.MaxResults > m) {
		lim.MaxResults = m
	}
	to := time.Duration(req.TimeoutMS) * time.Millisecond
	if to <= 0 {
		to = s.cfg.DefaultTimeout
	}
	if m := s.cfg.MaxTimeout; m > 0 && (to <= 0 || to > m) {
		to = m
	}
	return lim, to
}

// Query admits, budgets and executes one query against the named document.
// This is the programmatic core the HTTP handler wraps; tests drive it
// directly.
func (s *Server) Query(ctx context.Context, doc string, req QueryRequest) (*QueryResponse, error) {
	d, err := s.catalog.Get(doc)
	if err != nil {
		return nil, err
	}
	lim, timeout := s.effectiveLimits(req)
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// Admission after deadline derivation: time spent queued counts against
	// the query's own deadline, so a request that waited out its budget is
	// shed by the queue instead of executing past it.
	if err := s.adm.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.adm.Release()

	rc := obs.RequestFrom(ctx)
	rc.Stamp("admitted")
	start := time.Now()
	snap := d.Snapshot() // pin the epoch for the whole request
	io0 := d.IOStats()
	m := budget.NewMeter(ctx, lim)
	res, plan, err := snap.QueryMetered(req.Query, nil, m)
	rc.Stamp("exec_done")
	// The answer is still identifiers here: a count-only request, the
	// load-test mode, is done. Only a request for paths resolves them to
	// nodes, and that serialisation is part of what the request cost.
	var paths []string
	if err == nil && req.IncludePaths {
		var nodes []*xmltree.Node
		if nodes, err = res.Nodes(); err != nil {
			err = internalError{err}
		} else {
			paths = make([]string, len(nodes))
			for i, n := range nodes {
				paths[i] = snap.Path(n)
			}
			rc.Stamp("resolved")
		}
	}
	elapsed := time.Since(start)
	// Per-request pager attribution by cumulative delta — the same
	// before/after approach the planner uses for per-stage io_reads/io_hits
	// spans. Concurrent queries on the same document smear into each
	// other's deltas; for a latency breakdown that is precise enough, and
	// it costs two counter reads instead of per-pin plumbing.
	io1 := d.IOStats()
	rc.AddIO(io1.Reads-io0.Reads, io1.CacheHits-io0.CacheHits)
	rc.SetBudget(m.Postings(), m.Results())
	if s.sm != nil {
		s.sm.queries.Inc()
		s.sm.queryNS.Observe(elapsed.Nanoseconds())
		switch {
		case errors.Is(err, budget.ErrPostingsBudget):
			s.sm.budgetPostings.Inc()
		case errors.Is(err, budget.ErrResultBudget):
			s.sm.budgetResults.Inc()
		case errors.Is(err, context.DeadlineExceeded):
			s.sm.deadlines.Inc()
		}
	}
	if err != nil {
		return nil, err
	}
	return &QueryResponse{
		Count:     res.Len(),
		Plan:      plan.Kind.String(),
		Epoch:     snap.Epoch(),
		Postings:  m.Postings(),
		Results:   m.Results(),
		ElapsedUS: elapsed.Microseconds(),
		Paths:     paths,
	}, nil
}

// internalError marks a failure that is the server's own — an index its
// numbering disagrees with — so the API reports 500, not a client mistake.
type internalError struct{ error }

func (e internalError) Unwrap() error { return e.error }

// Open parses src and installs it in the catalog under name. With group
// commit enabled it also wires the document's batched write path — and,
// when a WALDir is configured, replays any existing log for this name over
// the fresh base image first (crash recovery).
func (s *Server) Open(name, src string) (*document.Document, error) {
	d, err := s.catalog.Open(name, src, s.cfg.DocumentOptions)
	if err != nil {
		return nil, err
	}
	if err := s.wireGroupCommit(name, d); err != nil {
		_ = s.catalog.Drop(name)
		return nil, err
	}
	return d, nil
}

// RecoveryInfo describes the WAL replay of one document open.
type RecoveryInfo struct {
	Doc     string `json:"doc"`
	Records int    `json:"records"`   // intact records recovered from the log
	Applied int    `json:"applied"`   // mutations replayed successfully
	Skipped int    `json:"skipped"`   // undecodable or unappliable records
	TornOff int64  `json:"tornBytes"` // bytes truncated from a torn tail
}

// Recoveries reports the WAL replays performed by Opens so far (the crash-
// recovery audit trail; empty without a WALDir).
func (s *Server) Recoveries() []RecoveryInfo {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	return append([]RecoveryInfo(nil), s.recoveries...)
}

func (s *Server) wireGroupCommit(name string, d *document.Document) error {
	gc := s.cfg.GroupCommit
	if !gc.Enabled {
		return nil
	}
	cfg := document.GroupConfig{
		MaxBatch:   gc.MaxBatch,
		MaxDelay:   gc.MaxDelay,
		QueueDepth: gc.QueueDepth,
	}
	if gc.WALDir != "" {
		policy, err := storage.ParseSyncPolicy(gc.SyncPolicy)
		if err != nil {
			return err
		}
		var records [][]byte
		wal, err := storage.OpenWAL(filepath.Join(gc.WALDir, name+".wal"), policy, func(p []byte) error {
			records = append(records, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			return err
		}
		applied, skipped, err := d.ReplayWAL(records)
		if err != nil {
			wal.Close()
			return fmt.Errorf("server: WAL replay for %q: %w", name, err)
		}
		st := wal.Stats()
		s.recMu.Lock()
		s.recoveries = append(s.recoveries, RecoveryInfo{
			Doc: name, Records: len(records), Applied: applied, Skipped: skipped, TornOff: st.Truncated,
		})
		s.recMu.Unlock()
		cfg.WAL = wal
	}
	return d.EnableGroupCommit(cfg)
}

// Close flushes and closes every document in the catalog (draining their
// group-commit queues and closing their WALs). The server must not be used
// afterwards.
func (s *Server) Close() error {
	var first error
	for _, name := range s.catalog.Names() {
		if err := s.catalog.Drop(name); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Insert executes one structural insert on the named document with
// visibility-ack semantics (the synchronous contract).
func (s *Server) Insert(ctx context.Context, doc, parentPath string, pos int, xml string) (document.Stats, error) {
	return s.InsertReq(ctx, doc, WriteRequest{Parent: parentPath, Pos: pos, XML: xml, WaitVisible: true})
}

// InsertReq executes one structural insert per the request's ack mode: the
// mutation enters the document's mutation pipeline (durability-acked at WAL
// append on a group-commit server); WaitVisible additionally blocks until
// the epoch carrying it publishes. Without group commit the mutation is
// applied inline and is visible at return either way.
func (s *Server) InsertReq(ctx context.Context, doc string, req WriteRequest) (document.Stats, error) {
	return s.mutate(ctx, doc, req.WaitVisible, func(ctx context.Context, d *document.Document) (*document.Ticket, error) {
		sub, err := xmltree.ParseFragment(req.XML)
		if err != nil {
			return nil, badRequest("bad fragment: " + err.Error())
		}
		return d.EnqueueInsert(ctx, req.Parent, req.Pos, sub)
	})
}

// Delete executes one structural delete on the named document with
// visibility-ack semantics.
func (s *Server) Delete(ctx context.Context, doc, parentPath string, pos int) (document.Stats, error) {
	return s.DeleteReq(ctx, doc, WriteRequest{Parent: parentPath, Pos: pos, WaitVisible: true})
}

// DeleteReq executes one structural delete per the request's ack mode; see
// InsertReq.
func (s *Server) DeleteReq(ctx context.Context, doc string, req WriteRequest) (document.Stats, error) {
	return s.mutate(ctx, doc, req.WaitVisible, func(ctx context.Context, d *document.Document) (*document.Ticket, error) {
		return d.EnqueueDelete(ctx, req.Parent, req.Pos)
	})
}

// mutate is the server's one write path: submit through the document's
// mutation pipeline, then wait on the ticket iff the request asked for the
// visibility ack. It does not take an admission slot: the bounded intake
// queue is the write path's own backpressure, and a queued mutation executes
// on the commit loop, not here — holding a slot through Wait would let
// pending writes starve readers.
func (s *Server) mutate(ctx context.Context, doc string, wait bool, submit func(context.Context, *document.Document) (*document.Ticket, error)) (document.Stats, error) {
	d, err := s.catalog.Get(doc)
	if err != nil {
		return document.Stats{}, err
	}
	if to := s.cfg.MaxTimeout; to > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, to)
		defer cancel()
	}
	tk, err := submit(ctx, d)
	if err != nil {
		return document.Stats{}, err
	}
	if s.sm != nil {
		s.sm.writes.Inc()
	}
	// A ticket that is already decided — always, without a commit loop —
	// reports its outcome whatever the ack mode.
	select {
	case <-tk.Done():
		wait = true
	default:
	}
	if wait {
		if _, err := tk.Wait(ctx); err != nil {
			return document.Stats{}, err
		}
	}
	return d.Stats(), nil
}

// Serve starts the server on addr (":0" picks a free port) and returns
// immediately; requests are served on a background goroutine until Close.
// The HTTP server carries the hardened obs connection deadlines — the
// query server must not be softer against slow-loris clients than the
// debug endpoint.
func (s *Server) Serve(addr string) (*Running, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := obs.NewHTTPServer(s.Handler())
	go func() { _ = srv.Serve(l) }()
	return &Running{l: l, srv: srv}, nil
}

// Running is a started server.
type Running struct {
	l   net.Listener
	srv *http.Server
}

// Addr returns the bound address (host:port).
func (r *Running) Addr() string { return r.l.Addr().String() }

// Close shuts the listener down immediately.
func (r *Running) Close() error { return r.srv.Close() }

// Shutdown drains in-flight requests before closing.
func (r *Running) Shutdown(ctx context.Context) error { return r.srv.Shutdown(ctx) }
