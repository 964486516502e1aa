package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// HTTP surfacing of a Registry: one metrics surface, the Prometheus text
// exposition under /metrics, with the same registry as a JSON snapshot under
// /metrics.json, plus the pprof profiler family under /debug/pprof/. Serve is
// optional equipment — nothing in the engine depends on it — so a serving
// process opts in with one call and a CLI run never pays for an HTTP stack.

// Handler returns the observability mux for reg: /metrics (Prometheus
// exposition), /metrics.json and /debug/pprof/.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Snapshot())
	})
	return mux
}

// Connection hardening for every HTTP listener the repo opens (this
// endpoint and the query server). The read deadlines bound how long a
// client may dribble its request in — without them a handful of idle
// connections sending one header byte a minute (slow-loris) pins goroutines
// and file descriptors forever. There is deliberately no WriteTimeout: the
// pprof profile and trace endpoints stream for a client-chosen number of
// seconds (?seconds=30 is routine), and a server-side write deadline would
// truncate exactly the long captures the endpoint exists for. Long-running
// responses are instead bounded per-request by the handlers themselves
// (the query server's budget deadline).
const (
	// ReadHeaderTimeout bounds the wait for a complete request header.
	ReadHeaderTimeout = 10 * time.Second
	// ReadTimeout bounds reading the whole request, body included.
	ReadTimeout = time.Minute
	// IdleTimeout reclaims keep-alive connections with no next request.
	IdleTimeout = 2 * time.Minute
)

// NewHTTPServer returns an http.Server for h with the package's hardened
// connection deadlines applied. Every listener in the repo — obs.Serve and
// cmd/ruidd — builds its server here so the slow-loris posture is set (and
// audited) in one place.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// Server is a running observability endpoint.
type Server struct {
	l   net.Listener
	srv *http.Server
}

// Serve starts the observability endpoint on addr (":0" picks a free port)
// and returns immediately; requests are served on a background goroutine
// until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := NewHTTPServer(Handler(reg))
	go func() { _ = srv.Serve(l) }()
	return &Server{l: l, srv: srv}, nil
}

// Addr returns the bound address (host:port).
func (s *Server) Addr() string { return s.l.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
