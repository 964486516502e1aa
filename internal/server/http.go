package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/budget"
	"repro/internal/document"
	"repro/internal/obs"
)

// HTTP surface (method+wildcard ServeMux patterns, Go 1.22):
//
//	PUT    /v1/docs/{name}         body: XML document  → open into catalog
//	GET    /v1/docs                 → catalog listing with per-doc stats
//	GET    /v1/docs/{name}          → document stats
//	DELETE /v1/docs/{name}          → drop from catalog
//	POST   /v1/docs/{name}/query    body: QueryRequest  → QueryResponse
//	POST   /v1/docs/{name}/insert   body: WriteRequest  → WriteResponse
//	POST   /v1/docs/{name}/delete   body: WriteRequest  → WriteResponse
//	GET    /v1/debug/requests       → flight-recorder ring (recent requests)
//	GET    /v1/debug/slow           → slow-request log (full stage breakdowns)
//	GET    /healthz                 → 200 ok (load-balancer probe)
//
// plus, when the server is observed, the obs endpoints (/metrics,
// /metrics.json, /debug/pprof/) on the same listener.
//
// Every /v1/docs handler runs behind the tracing middleware: a fresh
// obs.RequestCtx rides the request's context end to end (admission, budget,
// pager, and — for writes — across the group-commit pipeline), and its
// summary lands in the flight recorder plus the per-endpoint and
// per-document metric families when the request completes. Write bodies may
// set waitVisible in JSON or pass ?wait=visible in the URL.
//
// Error mapping is part of the overload contract: 503 + Retry-After for
// shed requests and for writes racing a document's close, 504 for queries
// that ran out of wall clock, 422 for queries that ran out of postings or
// result budget, 404 for catalog misses, 409 for catalog collisions and for
// writes to a document that takes none (cold-opened), 500 for a write the
// storage layer failed (WAL append or fsync, payload table) and for an
// answer whose identifiers the numbering cannot resolve, 400 for malformed
// inputs.

// WriteRequest is the body of insert/delete calls.
type WriteRequest struct {
	Parent string `json:"parent"`
	Pos    int    `json:"pos"`
	XML    string `json:"xml,omitempty"` // insert only: the subtree fragment
	// WaitVisible, on a group-commit server, blocks the response until the
	// mutation's batch has published (visibility ack). The default false
	// returns at the durability ack — the mutation is in the WAL and will
	// survive a crash, but a query racing the response may not see it yet.
	// Without group commit every write is applied inline and is visible at
	// return regardless.
	WaitVisible bool `json:"waitVisible,omitempty"`
}

// DocInfo is one catalog entry in listings.
type DocInfo struct {
	Name  string `json:"name"`
	Epoch int    `json:"epoch"`
	Nodes int    `json:"nodes"`
	Names int    `json:"names"`
}

// WriteResponse reports one executed write: the document's post-write
// stats plus, for traced requests, the trace id and the write-pipeline
// stage breakdown (enqueue→…→visible on the group-commit path). For a
// durability-acked request (waitVisible false) the stages recorded so far
// are returned — merge/publish stamps may still be in flight.
type WriteResponse struct {
	document.Stats
	TraceID uint64           `json:"traceId,omitempty"`
	Stages  []obs.StageStamp `json:"stages,omitempty"`
}

// statusWriter captures the handler's status code for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument is the tracing middleware: it mints the request's RequestCtx
// at ingress, threads it through the handler's context, and files the
// completed summary into the flight recorder and metric families.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rc := obs.NewRequest(endpoint, r.PathValue("name"))
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(obs.WithRequest(r.Context(), rc)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.recordRequest(endpoint, rc, status)
	}
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /v1/docs", s.instrument("list", s.handleList))
	mux.HandleFunc("PUT /v1/docs/{name}", s.instrument("open", s.handleOpen))
	mux.HandleFunc("GET /v1/docs/{name}", s.instrument("stats", s.handleStats))
	mux.HandleFunc("DELETE /v1/docs/{name}", s.instrument("drop", s.handleDrop))
	mux.HandleFunc("POST /v1/docs/{name}/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("POST /v1/docs/{name}/insert", s.instrument("insert", s.handleInsert))
	mux.HandleFunc("POST /v1/docs/{name}/delete", s.instrument("delete", s.handleDelete))
	mux.HandleFunc("GET /v1/debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /v1/debug/slow", s.handleDebugSlow)
	if s.reg != nil {
		// Mount the observability surface on the same listener; the obs
		// handler owns everything under its prefixes.
		oh := obs.Handler(s.reg)
		for _, p := range []string{"/metrics", "/metrics.json", "/debug/pprof/"} {
			mux.Handle("GET "+p, oh)
		}
	}
	return http.MaxBytesHandler(mux, s.cfg.MaxBodyBytes)
}

func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"requests": s.flight.Requests()})
}

func (s *Server) handleDebugSlow(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"thresholdMs": s.flight.SlowThreshold().Milliseconds(),
		"requests":    s.flight.Slow(),
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	names := s.catalog.Names()
	infos := make([]DocInfo, 0, len(names))
	for _, n := range names {
		d, err := s.catalog.Get(n)
		if err != nil {
			continue // dropped between Names and Get
		}
		st := d.Stats()
		infos = append(infos, DocInfo{Name: n, Epoch: st.Epoch, Nodes: st.Nodes, Names: st.Names})
	}
	writeJSON(w, http.StatusOK, map[string]any{"docs": infos})
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	src, err := io.ReadAll(r.Body)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	d, err := s.Open(name, string(src))
	if err != nil {
		writeErr(w, r, err)
		return
	}
	st := d.Stats()
	writeJSON(w, http.StatusCreated, DocInfo{Name: name, Epoch: st.Epoch, Nodes: st.Nodes, Names: st.Names})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	d, err := s.catalog.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, d.Stats())
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if err := s.catalog.Drop(r.PathValue("name")); err != nil {
		writeErr(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, badRequest("bad query body: "+err.Error()))
		return
	}
	if req.Query == "" {
		writeErr(w, r, badRequest("empty query"))
		return
	}
	resp, err := s.Query(r.Context(), r.PathValue("name"), req)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req WriteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, badRequest("bad insert body: "+err.Error()))
		return
	}
	if r.URL.Query().Get("wait") == "visible" {
		req.WaitVisible = true
	}
	st, err := s.InsertReq(r.Context(), r.PathValue("name"), req)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, writeResponse(r, st))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req WriteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, badRequest("bad delete body: "+err.Error()))
		return
	}
	if r.URL.Query().Get("wait") == "visible" {
		req.WaitVisible = true
	}
	st, err := s.DeleteReq(r.Context(), r.PathValue("name"), req)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, writeResponse(r, st))
}

// writeResponse assembles a write's response body: stats plus the trace's
// stage breakdown when the request runs behind the tracing middleware.
func writeResponse(r *http.Request, st document.Stats) WriteResponse {
	rc := obs.RequestFrom(r.Context())
	return WriteResponse{Stats: st, TraceID: rc.ID(), Stages: rc.Stages()}
}

type badRequest string

func (e badRequest) Error() string { return string(e) }

// writeErr maps an error to its HTTP status. The mapping is the client's
// contract for distinguishing "back off" (503), "ask for less" (422),
// "took too long" (504), "our fault" (500) and plain mistakes (4xx). The
// error text is also recorded on the request trace for the flight recorder.
func writeErr(w http.ResponseWriter, r *http.Request, err error) {
	obs.RequestFrom(r.Context()).SetError(err.Error())
	var status int
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, document.ErrDocumentClosed):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, document.ErrStorage), errors.As(err, new(internalError)):
		status = http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	case errors.Is(err, budget.ErrPostingsBudget), errors.Is(err, budget.ErrResultBudget):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, ErrUnknownDocument):
		status = http.StatusNotFound
	case errors.Is(err, ErrDuplicateDocument), errors.Is(err, document.ErrColdDocument):
		status = http.StatusConflict
	default:
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error(), "status": strconv.Itoa(status)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
