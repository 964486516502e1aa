// Command xq evaluates an XPath location path over an XML document using
// the ruid-driven axis engine (or, with -nav, the query planner or the
// pointer engine for comparison).
//
// Usage:
//
//	xq [-nav ruid|pointer|planner] [-area N] [-serialize]
//	   [-explain-analyze] [-stats] [-serve addr] [-cold] [-writes N]
//	   [-wait-visible] 'xpath' [file.xml]
//
// With no file argument the document is read from standard input. The ruid
// and planner modes go through the internal/document facade, the same stack
// a serving process would use.
//
// Observability flags:
//
//   - -explain-analyze runs the query through the planner under a trace and
//     prints the per-stage EXPLAIN ANALYZE report (plan decision with both
//     cost estimates, per-stage cardinalities and wall times, blocks
//     admitted versus skipped) instead of the result set.
//   - -stats dumps the engine metric registry after the query, in the
//     Prometheus text exposition /metrics serves.
//   - -writes N drives N inserts through the group-commit write path before
//     the query (facade modes), so -stats and -serve expose the write.*
//     metrics — queue depth, batch-size histogram, publish counters — from
//     a single command.
//   - -wait-visible traces each -writes insert end to end and prints the
//     write-pipeline stage breakdown (enqueue → dequeue → merged →
//     published → visible, plus the WAL stamps when one is attached) to
//     standard error after the batch lands.
//   - -serve addr keeps the process alive after the query, exposing
//     /metrics, /metrics.json and /debug/pprof on addr.
//   - -cold (facade modes) round-trips the document through a saved bundle
//     and queries the reopened, read-only document.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/obs"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// config carries the flag values into run.
type config struct {
	nav       string
	area      int
	serialize bool
	explain   bool   // -explain-analyze: print the trace, not the results
	stats     bool   // -stats: dump the metric registry after the query
	serve     string // -serve: observability HTTP address ("" = off)
	cold      bool   // -cold: reopen from a bundle before querying
	writes    int    // -writes: group-commit inserts to drive before the query
	waitVis   bool   // -wait-visible: trace writes and print stage breakdowns
}

func main() {
	var cfg config
	flag.StringVar(&cfg.nav, "nav", "ruid", "navigator: ruid, pointer or planner")
	flag.IntVar(&cfg.area, "area", core.DefaultMaxAreaNodes, "ruid: max nodes per UID-local area")
	flag.BoolVar(&cfg.serialize, "serialize", false, "print matched subtrees as XML instead of paths")
	flag.BoolVar(&cfg.explain, "explain-analyze", false, "print the traced execution report (implies -nav planner)")
	flag.BoolVar(&cfg.stats, "stats", false, "dump engine metrics after the query")
	flag.StringVar(&cfg.serve, "serve", "", "serve /metrics and /debug/pprof on this address after the query")
	flag.BoolVar(&cfg.cold, "cold", false, "round-trip through a saved bundle and query the reopened document")
	flag.IntVar(&cfg.writes, "writes", 0, "drive N group-commit inserts before the query (facade modes; pairs with -stats)")
	flag.BoolVar(&cfg.waitVis, "wait-visible", false, "trace each -writes insert and print its write-pipeline stage breakdown")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xq [flags] 'xpath' [file.xml]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg, flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "xq: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config, query, path string, out io.Writer) error {
	var in io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	opts := document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: cfg.area, AdjustFanout: true},
	}
	var reg *obs.Registry
	if cfg.stats || cfg.serve != "" {
		reg = obs.NewRegistry()
		opts.Observe = reg
	}
	nav := cfg.nav
	if cfg.explain {
		nav = "planner"
	}

	// open builds the facade document; with -cold it then round-trips
	// through an in-memory bundle and returns the reopened document.
	open := func(in io.Reader) (*document.Document, error) {
		d, err := document.Open(in, opts)
		if err != nil {
			return nil, err
		}
		if !cfg.cold {
			return d, nil
		}
		var bundle bytes.Buffer
		if err := d.SaveBundle(&bundle); err != nil {
			return nil, fmt.Errorf("saving bundle: %w", err)
		}
		cold, err := document.OpenBundle(&bundle, opts)
		if err != nil {
			return nil, fmt.Errorf("reopening bundle: %w", err)
		}
		return cold, nil
	}

	// driveWrites pushes -writes synthetic inserts through the group-commit
	// path so the write.* metrics are live when -stats or -serve dumps the
	// registry. The inserts land as <xqwrite/> children of the document
	// element and stay in the queried tree.
	driveWrites := func(d *document.Document) error {
		if cfg.writes <= 0 {
			return nil
		}
		if err := d.EnableGroupCommit(document.GroupConfig{}); err != nil {
			return err
		}
		root := d.Snapshot().Tree().DocumentElement()
		if root == nil {
			return fmt.Errorf("-writes: document has no element root")
		}
		parent := "/" + root.Name
		tickets := make([]*document.Ticket, 0, cfg.writes)
		traces := make([]*obs.RequestCtx, 0, cfg.writes)
		for i := 0; i < cfg.writes; i++ {
			// With -wait-visible each write gets its own trace: the commit
			// loop stamps the pipeline stages onto it as the op moves, and
			// the breakdown prints below once the ticket resolves.
			ctx := context.Background()
			var rc *obs.RequestCtx
			if cfg.waitVis {
				rc = obs.NewRequest("insert", "")
				ctx = obs.WithRequest(ctx, rc)
			}
			tk, err := d.EnqueueInsert(ctx, parent, 0, xmltree.NewElement("xqwrite"))
			if err != nil {
				return fmt.Errorf("-writes: %w", err)
			}
			tickets = append(tickets, tk)
			traces = append(traces, rc)
		}
		for i, tk := range tickets {
			if _, err := tk.Wait(context.Background()); err != nil {
				return fmt.Errorf("-writes: %w", err)
			}
			if rc := traces[i]; rc != nil {
				rc.Finish(0)
				fmt.Fprintf(os.Stderr, "write %d (trace %d) %dus:", i, rc.ID(), rc.Duration().Microseconds())
				for _, st := range rc.Stages() {
					fmt.Fprintf(os.Stderr, "  %s+%dus", st.Name, st.OffsetUS)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
		return nil
	}

	// finish dumps metrics and/or parks the process on the observability
	// endpoint after the query ran, for the modes that built a facade.
	finish := func() error {
		if cfg.stats {
			reg.WriteProm(out)
		}
		if cfg.serve != "" {
			srv, err := obs.Serve(cfg.serve, reg)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "obs: serving /metrics and /debug on http://%s (interrupt to exit)\n", srv.Addr())
			select {}
		}
		return nil
	}

	switch nav {
	case "planner":
		d, err := open(in)
		if err != nil {
			return err
		}
		if err := driveWrites(d); err != nil {
			return err
		}
		if cfg.explain {
			report, err := d.ExplainAnalyze(query)
			if err != nil {
				return err
			}
			fmt.Fprint(out, report)
			return finish()
		}
		snap := d.Snapshot()
		results, plan, err := snap.Query(query)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "plan: %s\n", plan.Explain())
		if err := printResults(out, results, cfg.serialize, snap.Path); err != nil {
			return err
		}
		return finish()

	case "ruid":
		d, err := open(in)
		if err != nil {
			return err
		}
		if err := driveWrites(d); err != nil {
			return err
		}
		snap := d.Snapshot()
		engine := xpath.NewEngine(snap.Tree(), xpath.SchemeNavigator{S: snap.Numbering()})
		results, err := engine.Query(query)
		if err != nil {
			return err
		}
		if err := printResults(out, results, cfg.serialize, snap.Path); err != nil {
			return err
		}
		return finish()

	case "pointer":
		if cfg.stats || cfg.serve != "" || cfg.cold || cfg.writes > 0 {
			return fmt.Errorf("-stats, -serve, -cold and -writes need the facade: use -nav ruid or -nav planner")
		}
		doc, err := xmltree.Parse(in)
		if err != nil {
			return err
		}
		results, err := xpath.NewEngine(doc, xpath.PointerNavigator{}).Query(query)
		if err != nil {
			return err
		}
		return printResults(out, results, cfg.serialize, (*xmltree.Node).Path)

	default:
		return fmt.Errorf("unknown navigator %q", nav)
	}
}

// printResults prints each result node serialized or as its path; path is the
// epoch's for a facade document (document.Snapshot.Path) and the tree's own
// for a bare parsed one.
func printResults(out io.Writer, results []*xmltree.Node, serialize bool, path func(*xmltree.Node) string) error {
	for _, n := range results {
		if serialize {
			fmt.Fprintln(out, xmltree.Serialize(n))
			continue
		}
		switch n.Kind {
		case xmltree.Attribute, xmltree.Text:
			fmt.Fprintf(out, "%s = %q\n", path(n), n.Data)
		default:
			fmt.Fprintln(out, path(n))
		}
	}
	fmt.Fprintf(os.Stderr, "%d node(s)\n", len(results))
	return nil
}
