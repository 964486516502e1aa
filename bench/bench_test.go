package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMain lets the test binary serve as the reference child, as the bench
// binary does.
func TestMain(m *testing.M) {
	if os.Getenv(refChildEnv) != "" {
		refChildMain()
		return
	}
	os.Exit(m.Run())
}

func unitsOf(gates []gate) map[string]string {
	m := map[string]string{}
	for _, g := range gates {
		m[g.Name] = g.Unit
	}
	return m
}

// TestSmoke runs all four workloads, untraced and traced, on a tiny
// document for a fraction of a second each, and holds what they emit equal
// to BENCHMARK.json: same workloads, same metric names in both directions,
// same units, nothing failed, and no end-to-end metric at zero.
func TestSmoke(t *testing.T) {
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, bench runs %v", names, workloadNames)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, bench default %d", c.RunSeconds, defaultSeconds)
	}

	out := t.TempDir()
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := unitsOf(c.EndToEnd)
			if traced {
				want = unitsOf(c.PerLayer)
			}
			res, env, err := execute(config{workload: w, seed: 7, seconds: 0.3, scale: 5, traced: traced, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, name, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: emitted metrics differ from BENCHMARK.json\n got  %v\n want %v", w, traced, got, want)
			}
			for _, key := range []string{"nproc", "gomaxprocs", "go", "commit", "seed", "counts", "nodes", "wal_sync"} {
				if _, ok := env[key]; !ok {
					t.Errorf("%s: env record lacks %q", w, key)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w, err)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) gives, since the driver judges spreads by it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}
