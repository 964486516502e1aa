package query_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/xmltree"
)

// TestParallelDeterminism: for every conformance query, p goroutines
// running it at once on one planner, under 1, 2 and 8 scheduler threads,
// each get the sequence the planner returns alone — same nodes, same order.
// An executor operation runs on its caller's goroutine, so the parallelism
// of the read path is between queries: they share the planner, its executor
// and the pools behind it (probes, hit sets, scan scratch, released
// results), and a pooled buffer handed to two queries at once shows here.
// The CI race job runs this with GOMAXPROCS=1 as well.
func TestParallelDeterminism(t *testing.T) {
	docs := map[string]*xmltree.Node{
		"xmark":     xmltree.XMark(2, 9),
		"recursive": xmltree.Recursive(2, 7),
		"dblp":      xmltree.DBLP(300, 4),
	}
	queries := []string{
		// Join-compilable chains.
		"/site//item/name", "//section//title", "/dblp/article/author",
		"//regions//item//text", "/book//para",
		// Twig-compilable branching patterns.
		"//item[name]//text", "//person[profile]/name",
		"//open_auction[bidder][itemref]/initial",
		// Navigation fallbacks (executor-independent, kept as control).
		"//item[1]", "//title | //name", "//section/..",
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for dn, doc := range docs {
		p := newPlanner(t, doc)
		// Reference sequences, one query at a time, computed before
		// touching GOMAXPROCS.
		want := make(map[string][]*xmltree.Node, len(queries))
		for _, q := range queries {
			nodes, _, err := p.Run(q)
			if err != nil {
				t.Fatalf("%s: Run(%q): %v", dn, q, err)
			}
			want[q] = nodes
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for _, callers := range []int{1, 2, 8} {
				for _, q := range queries {
					t.Run(fmt.Sprintf("%s/procs=%d/p=%d/%s", dn, procs, callers, q), func(t *testing.T) {
						errs := make(chan error, callers)
						var wg sync.WaitGroup
						for g := 0; g < callers; g++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								for round := 0; round < 3; round++ {
									got, plan, err := p.Run(q)
									if err == nil && !slices.Equal(got, want[q]) {
										err = fmt.Errorf("[%s] %d nodes, alone %d: sequences differ", plan.Kind, len(got), len(want[q]))
									}
									if err != nil {
										errs <- err
										return
									}
								}
							}()
						}
						wg.Wait()
						close(errs)
						for err := range errs {
							t.Error(err)
						}
					})
				}
			}
		}
	}
}
