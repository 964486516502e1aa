// Command ruidd serves a catalog of RUID-numbered XML documents over HTTP:
// open documents with PUT, query them with POST, and every query runs
// against a pinned snapshot under an enforced resource budget (postings
// decoded, result rows materialized, wall clock). Overload sheds with 503
// instead of collapsing; see internal/server for the API and the error
// contract, and cmd/ruidload for the matching load generator.
//
// Usage:
//
//	ruidd [-addr :8712] [-inflight N] [-queue N]
//	      [-max-postings N] [-max-results N] [-timeout 2s]
//	      [-wal DIR] [-wal-sync group|always|none]
//	      [-batch N] [-batch-delay D]
//	      [-slow-ms N] [-flight-records N]
//	      [-preload file.xml ...]
//
// Preloaded files are opened under their basename (sans extension) before
// the listener starts, so a benchmark document is queryable immediately.
//
// -batch (or -wal) turns on the group-commit write path: mutations queue
// into a per-document intake buffer and publish in coalesced epochs. With
// -wal DIR each document keeps a write-ahead log at DIR/<name>.wal — a
// write response is a durability acknowledgment (per -wal-sync), and
// reopening a document after a crash replays every acknowledged mutation
// from its log before serving.
//
// Every request is traced: /metrics serves Prometheus text exposition,
// /v1/debug/requests the flight recorder's recent-request ring, and
// /v1/debug/slow the requests that overran -slow-ms with their full stage
// breakdowns. SIGQUIT dumps both rings to stderr without stopping the
// server.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8712", "listen address")
	inflight := flag.Int("inflight", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queued requests before shedding (0 = 4x inflight)")
	maxPostings := flag.Int64("max-postings", 0, "hard per-query postings ceiling (0 = uncapped)")
	maxResults := flag.Int64("max-results", 0, "hard per-query result-row ceiling (0 = uncapped)")
	timeout := flag.Duration("timeout", 0, "default per-query wall-clock budget (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "hard per-query deadline ceiling")
	walDir := flag.String("wal", "", "per-document write-ahead log directory (enables group commit + crash recovery)")
	walSync := flag.String("wal-sync", "group", "WAL fsync policy: group, always or none")
	batch := flag.Int("batch", 0, "group-commit batch size; >0 enables the batched write path without a WAL (0 with -wal = default 64)")
	batchDelay := flag.Duration("batch-delay", 0, "group-commit batch linger (0 = default 500µs)")
	slowMS := flag.Int64("slow-ms", 0, "slow-request threshold in milliseconds for /v1/debug/slow (0 = default 250)")
	flightRecords := flag.Int("flight-records", 0, "flight-recorder ring size (0 = default 256)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ruidd [flags] [-preload file.xml ...]\n")
		flag.PrintDefaults()
	}
	var preload multiFlag
	flag.Var(&preload, "preload", "XML file to open at startup (repeatable); catalog name is the basename")
	flag.Parse()

	if *walDir != "" {
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "ruidd: wal dir: %v\n", err)
			os.Exit(1)
		}
	}
	s := server.New(server.Config{
		MaxInflight:    *inflight,
		MaxQueue:       *queue,
		MaxLimits:      budget.Limits{MaxPostings: *maxPostings, MaxResults: *maxResults},
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Observe:        obs.NewRegistry(),
		GroupCommit: server.GroupCommitConfig{
			Enabled:    *batch > 0 || *walDir != "",
			MaxBatch:   *batch,
			MaxDelay:   *batchDelay,
			WALDir:     *walDir,
			SyncPolicy: *walSync,
		},
		FlightRecords: *flightRecords,
		SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
	})
	for _, path := range preload {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ruidd: preload %s: %v\n", path, err)
			os.Exit(1)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		d, err := s.Open(name, string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ruidd: preload %s: %v\n", path, err)
			os.Exit(1)
		}
		st := d.Stats()
		fmt.Fprintf(os.Stderr, "ruidd: opened %q (%d nodes)\n", name, st.Nodes)
	}
	for _, rec := range s.Recoveries() {
		fmt.Fprintf(os.Stderr, "ruidd: recovered %q: %d WAL records, %d applied, %d skipped, %d torn bytes cut\n",
			rec.Doc, rec.Records, rec.Applied, rec.Skipped, rec.TornOff)
	}

	run, err := s.Serve(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ruidd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ruidd: serving on %s\n", run.Addr())

	// SIGQUIT dumps the flight recorder (slow log + recent ring) to stderr
	// and keeps serving — the field-debugging snapshot for a live server.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			fmt.Fprintln(os.Stderr, "ruidd: SIGQUIT — flight recorder dump")
			s.Flight().Dump(os.Stderr)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "ruidd: shutting down")
	_ = run.Close()
	_ = s.Close() // flush group-commit queues, close WALs
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }
