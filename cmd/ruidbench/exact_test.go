package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestExactRows holds the exact rows of `ruidbench -json` to their golden
// values. They are counts and sizes, pure functions of the fixtures, so a
// change that moves one changed what the engine does: the partition (K rows,
// κ), the posting encoding, the update scope of a write, the work of a
// positional lookup, or a scheme's labels. open/heap_bytes_per_node is the
// live heap an open document keeps per node; it read the same in every probe
// of a commit, but it is taken from the collector's accounting, so it is held
// within 2 %: a node size class moves it by 16 or more.
func TestExactRows(t *testing.T) {
	got := map[string]float64{}
	add := func(rows ...microResult) {
		for _, r := range rows {
			got[r.Name] = r.NsPerOp
		}
	}
	add(readRows()...)
	add(bytesPerPostingRows()...)
	add(writeRows()...)
	_, schemeRows := schemeBenches()
	add(schemeRows...)

	want := map[string]float64{
		"build/k_rows":                                  951,
		"build/kappa":                                   200,
		"read/nav_visited_per_point_query":              11.25,
		"read/postings_per_join_query":                  1064.8,
		"read/nodes_resolved_per_count_query":           0,
		"read/ids_kept_per_count_query":                 0,
		"postings/bytes_per_posting/nodes=50000":        4.52636,
		"write/postings_reencoded_per_mutation/batch=1": 136.5,
	}
	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline []microResult
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	schemes := 0
	for _, r := range baseline {
		if strings.HasPrefix(r.Name, "scheme/") &&
			(strings.HasSuffix(r.Name, "/label_bytes_per_node") || strings.HasSuffix(r.Name, "/update_relabel")) {
			want[r.Name] = r.NsPerOp
			schemes++
		}
	}
	if schemes == 0 {
		t.Fatal("BENCH_baseline.json holds no scheme/* pseudo rows")
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: no such row", name)
		case strings.HasPrefix(name, "postings/bytes_per_posting/"):
			// The row is a quotient; the baseline keeps five decimals.
			if d := g - w; d > 5e-6 || d < -5e-6 {
				t.Errorf("%s = %v, want %v", name, g, w)
			}
		case g != w:
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
	for name, g := range got {
		if strings.HasPrefix(name, "scheme/") && (strings.HasSuffix(name, "/label_bytes_per_node") ||
			strings.HasSuffix(name, "/update_relabel")) {
			if _, ok := want[name]; !ok {
				t.Errorf("%s = %v has no baseline row", name, g)
			}
		}
	}

	const heapName, heapWant = "open/heap_bytes_per_node", 178
	if g, ok := got[heapName]; !ok || g < heapWant*0.98 || g > heapWant*1.02 {
		t.Errorf("%s = %v, want %v ±2 %%", heapName, g, heapWant)
	}

	// A posting splice pays the list's directory and the blocks it rewrites;
	// the allocator may round the directory either way by a size class.
	const deltaName, deltaMax = "postings/apply_delta_bytes/postings=200000", 15176
	if r := applyDeltaBytesRow(); r.Name != deltaName || r.NsPerOp > deltaMax {
		t.Errorf("%s = %v, want at most %d", r.Name, r.NsPerOp, deltaMax)
	}
}
