package main

import (
	"strings"
	"testing"
)

func rows(pairs map[string]float64) map[string]result {
	out := make(map[string]result, len(pairs))
	for name, ns := range pairs {
		out[name] = result{Name: name, Iterations: 100, NsPerOp: ns}
	}
	return out
}

// both required publication benches, at identical timings.
func withRequired(pairs map[string]float64) map[string]float64 {
	for _, r := range requiredBenches {
		if _, ok := pairs[r]; !ok {
			pairs[r] = 1000
		}
	}
	return pairs
}

func TestDiffPasses(t *testing.T) {
	base := rows(withRequired(map[string]float64{"join/a": 100}))
	cur := rows(withRequired(map[string]float64{"join/a": 110}))
	var sb strings.Builder
	if diff(&sb, base, cur, 0.25, false) {
		t.Fatalf("within-threshold run failed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "ok") {
		t.Fatalf("report lacks ok line:\n%s", sb.String())
	}
}

func TestDiffRegression(t *testing.T) {
	base := rows(withRequired(map[string]float64{"join/a": 100}))
	cur := rows(withRequired(map[string]float64{"join/a": 200}))
	var sb strings.Builder
	if !diff(&sb, base, cur, 0.25, false) {
		t.Fatal("2x regression passed")
	}
	if !strings.Contains(sb.String(), "REGRESS join/a") {
		t.Fatalf("report lacks REGRESS line:\n%s", sb.String())
	}

	// An exact count committed as 0 (nodes a count-only query resolves)
	// holds only at 0: any positive value is beyond every ratio.
	base = rows(withRequired(map[string]float64{"read/nodes_resolved_per_count_query": 0}))
	sb.Reset()
	if diff(&sb, base, base, 0.25, false) {
		t.Fatalf("0 against a 0 baseline failed:\n%s", sb.String())
	}
	cur = rows(withRequired(map[string]float64{"read/nodes_resolved_per_count_query": 1}))
	if !diff(&sb, base, cur, 0.25, false) {
		t.Fatal("a count query that resolves a node passed a 0 baseline")
	}
}

// TestDiffAddedBenchmark: a benchmark only in the current run must be
// reported as ADDED and fail the gate (stale baseline), not be skipped.
func TestDiffAddedBenchmark(t *testing.T) {
	base := rows(withRequired(map[string]float64{}))
	cur := rows(withRequired(map[string]float64{"parallel/new": 50}))
	var sb strings.Builder
	if !diff(&sb, base, cur, 0.25, false) {
		t.Fatal("added benchmark passed the gate")
	}
	if !strings.Contains(sb.String(), "ADDED   parallel/new") {
		t.Fatalf("report lacks ADDED line:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "regenerate BENCH_baseline.json") {
		t.Fatalf("ADDED line lacks remediation hint:\n%s", sb.String())
	}
}

// TestDiffRemovedBenchmark: a benchmark only in the baseline must be
// reported as REMOVED and fail the gate.
func TestDiffRemovedBenchmark(t *testing.T) {
	base := rows(withRequired(map[string]float64{"join/gone": 100}))
	cur := rows(withRequired(map[string]float64{}))
	var sb strings.Builder
	if !diff(&sb, base, cur, 0.25, false) {
		t.Fatal("removed benchmark passed the gate")
	}
	if !strings.Contains(sb.String(), "REMOVED join/gone") {
		t.Fatalf("report lacks REMOVED line:\n%s", sb.String())
	}
}

// TestDiffRequiredMissing: losing a required publication bench fails even
// if the baseline lost it too.
func TestDiffRequiredMissing(t *testing.T) {
	base := rows(map[string]float64{"join/a": 100})
	cur := rows(map[string]float64{"join/a": 100})
	var sb strings.Builder
	if !diff(&sb, base, cur, 0.25, false) {
		t.Fatal("run without required benches passed")
	}
	if !strings.Contains(sb.String(), "REQUIRED") {
		t.Fatalf("report lacks REQUIRED line:\n%s", sb.String())
	}
}

// TestMarkdownRender: the -markdown renderer emits a GFM table over the
// same rows the text renderer (and the gate) sees.
func TestMarkdownRender(t *testing.T) {
	base := rows(withRequired(map[string]float64{"join/a": 100, "join/gone": 50}))
	cur := rows(withRequired(map[string]float64{"join/a": 200, "parallel/new": 10}))
	delete(cur, "join/gone")
	diffRows, failed := compare(base, cur, 0.25, false)
	if !failed {
		t.Fatal("regression + added + removed passed the gate")
	}
	var sb strings.Builder
	renderMarkdown(&sb, diffRows)
	out := sb.String()
	for _, want := range []string{
		"| status | benchmark | baseline ns/op | current ns/op | delta |",
		"|---|---|---:|---:|---:|",
		"| **REGRESS** | `join/a` | 100.0 | 200.0 | +100.0% |",
		"| **ADDED** | `parallel/new` |",
		"| **REMOVED** | `join/gone` |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "REQUIRED") {
		t.Fatalf("REQUIRED row present despite required benches existing:\n%s", out)
	}
}

// TestDiffAddedAllowed: -allow-added renders ADDED rows without failing the
// gate, while regressions still fail under the same flag.
func TestDiffAddedAllowed(t *testing.T) {
	base := rows(withRequired(map[string]float64{"join/a": 100}))
	cur := rows(withRequired(map[string]float64{"join/a": 105, "scheme/new/row": 50}))
	var sb strings.Builder
	if diff(&sb, base, cur, 0.25, true) {
		t.Fatalf("added benchmark failed the gate despite -allow-added:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "ADDED   scheme/new/row") {
		t.Fatalf("report lacks ADDED line:\n%s", sb.String())
	}
	cur = rows(withRequired(map[string]float64{"join/a": 200, "scheme/new/row": 50}))
	sb.Reset()
	if !diff(&sb, base, cur, 0.25, true) {
		t.Fatal("2x regression passed under -allow-added")
	}
}
