// Command benchdiff compares a fresh `ruidbench -json` run against the
// committed BENCH_baseline.json and fails (exit 1) when a benchmark
// regresses beyond the allowed ratio. It is the CI gate keeping the
// identifier hot paths and epoch publication honest: a change that slows
// epoch_publish or the structural joins past the threshold fails the
// build instead of silently shifting the baseline.
//
// A benchmark present in only one file is never skipped: one missing from
// the current run is REMOVED (renamed or dropped from the harness) and one
// missing from the baseline is ADDED (the baseline needs regenerating) —
// both fail the gate, so the committed baseline always covers exactly the
// harness's benchmark set. -allow-added downgrades ADDED to informational
// for the PR that introduces new benchmarks: the rows still render, but
// only regressions and removals fail, so a harness extension does not need
// a same-commit baseline regeneration on the CI host.
//
// Usage:
//
//	benchdiff -baseline BENCH_baseline.json -current out.json [-max-regress 0.25] [-allow-added]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// result mirrors the microResult rows ruidbench -json emits.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func load(path string) (map[string]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []result
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	byName := make(map[string]result, len(rows))
	for _, r := range rows {
		byName[r.Name] = r
	}
	return byName, nil
}

// requiredBenches must exist in every current run: the publication benches
// (and the exact counts: postings a mutation re-encodes, the index's half of
// the paper's confined update scope; bytes a mutation allocates, which a
// write that copies a wide child list or K row whole multiplies; bytes one
// posting splice allocates, which a splice that copies the list instead of
// its directory multiplies forty-fold; nodes a count-only query resolves,
// which is none; candidates a positional lookup's axis walks visit; the
// area count and κ of the table K built for the bench document, which move
// when a partition change renames the identifiers; and the live heap an open
// document holds per node, which a second per-document tree nearly doubles)
// are the point of the gate; refuse to pass a run in which they went missing (renamed, dropped
// from the harness).
var requiredBenches = []string{
	"epoch_publish/nodes=5000",
	"epoch_publish/nodes=50000",
	"write/mutation_ns/batch=1",
	"write/mutation_ns/batch=64",
	"write/postings_reencoded_per_mutation/batch=1",
	"write/alloc_bytes_per_mutation/batch=1",
	"postings/apply_delta_bytes/postings=200000",
	"read/nodes_resolved_per_count_query",
	"read/nav_visited_per_point_query",
	"build/k_rows",
	"build/kappa",
	"open/heap_bytes_per_node",
	"obs2/server_query/on",
	"obs2/group_write/on",
}

// Row statuses.
const (
	statusOK       = "ok"
	statusRegress  = "REGRESS"
	statusAdded    = "ADDED"
	statusRemoved  = "REMOVED"
	statusRequired = "REQUIRED"
)

// diffRow is one benchmark's comparison, renderer-independent.
type diffRow struct {
	status  string
	name    string
	baseNs  float64
	curNs   float64
	hasBase bool
	hasCur  bool
}

// compare builds the per-benchmark comparison rows (names sorted) and
// reports whether the gate fails: a regression beyond maxRegress, a
// required or baseline benchmark missing from current (REMOVED), or a
// current benchmark absent from the baseline (ADDED — the baseline file is
// stale; allowAdded renders the row without failing).
func compare(baseline, current map[string]result, maxRegress float64, allowAdded bool) ([]diffRow, bool) {
	var out []diffRow
	failed := false
	for _, required := range requiredBenches {
		if _, ok := current[required]; !ok {
			out = append(out, diffRow{status: statusRequired, name: required})
			failed = true
		}
	}
	names := make([]string, 0, len(baseline)+len(current))
	for name := range baseline {
		names = append(names, name)
	}
	for name := range current {
		if _, ok := baseline[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		base, inBase := baseline[name]
		cur, inCur := current[name]
		row := diffRow{name: name, baseNs: base.NsPerOp, curNs: cur.NsPerOp, hasBase: inBase, hasCur: inCur}
		switch {
		case !inCur:
			row.status = statusRemoved
			failed = true
		case !inBase:
			row.status = statusAdded
			if !allowAdded {
				failed = true
			}
		case cur.NsPerOp > base.NsPerOp*(1+maxRegress):
			row.status = statusRegress
			failed = true
		default:
			row.status = statusOK
		}
		out = append(out, row)
	}
	return out, failed
}

func (r diffRow) deltaPercent() float64 { return (r.curNs/r.baseNs - 1) * 100 }

// renderText writes the rows in the plain aligned format CI logs show.
func renderText(w io.Writer, rows []diffRow) {
	for _, r := range rows {
		switch r.status {
		case statusRequired:
			fmt.Fprintf(w, "REQUIRED %-32s missing from current run\n", r.name)
		case statusRemoved:
			fmt.Fprintf(w, "REMOVED %-32s (in baseline, not in current run)\n", r.name)
		case statusAdded:
			fmt.Fprintf(w, "ADDED   %-32s %12.1f ns/op  (not in baseline; regenerate BENCH_baseline.json)\n",
				r.name, r.curNs)
		default:
			status := "ok     "
			if r.status == statusRegress {
				status = "REGRESS"
			}
			fmt.Fprintf(w, "%s %-32s %12.1f ns/op -> %12.1f ns/op  (%+.1f%%)\n",
				status, r.name, r.baseNs, r.curNs, r.deltaPercent())
		}
	}
}

// renderMarkdown writes the same rows as a GitHub-flavored markdown table,
// for PR comments and job summaries.
func renderMarkdown(w io.Writer, rows []diffRow) {
	fmt.Fprintln(w, "| status | benchmark | baseline ns/op | current ns/op | delta |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|")
	for _, r := range rows {
		switch r.status {
		case statusRequired:
			fmt.Fprintf(w, "| **%s** | `%s` | — | — | missing from current run |\n", r.status, r.name)
		case statusRemoved:
			fmt.Fprintf(w, "| **%s** | `%s` | %.1f | — | in baseline, not in current run |\n",
				r.status, r.name, r.baseNs)
		case statusAdded:
			fmt.Fprintf(w, "| **%s** | `%s` | — | %.1f | not in baseline; regenerate BENCH_baseline.json |\n",
				r.status, r.name, r.curNs)
		case statusRegress:
			fmt.Fprintf(w, "| **%s** | `%s` | %.1f | %.1f | %+.1f%% |\n",
				r.status, r.name, r.baseNs, r.curNs, r.deltaPercent())
		default:
			fmt.Fprintf(w, "| %s | `%s` | %.1f | %.1f | %+.1f%% |\n",
				r.status, r.name, r.baseNs, r.curNs, r.deltaPercent())
		}
	}
}

// diff writes the text comparison to w and reports whether the gate fails.
func diff(w io.Writer, baseline, current map[string]result, maxRegress float64, allowAdded bool) bool {
	rows, failed := compare(baseline, current, maxRegress, allowAdded)
	renderText(w, rows)
	return failed
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline JSON")
	currentPath := flag.String("current", "", "fresh ruidbench -json output to check")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed ns/op regression ratio (0.25 = +25%)")
	allowAdded := flag.Bool("allow-added", false, "report benchmarks missing from the baseline without failing the gate")
	markdown := flag.Bool("markdown", false, "emit the comparison as a GitHub-flavored markdown table")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required")
		os.Exit(2)
	}

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	rows, failed := compare(baseline, current, *maxRegress, *allowAdded)
	if *markdown {
		renderMarkdown(os.Stdout, rows)
	} else {
		renderText(os.Stdout, rows)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: regression beyond %.0f%%, or added/removed benchmark\n", *maxRegress*100)
		os.Exit(1)
	}
}
