package query_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The five set-at-a-time queries of the read_join benchmark workload: three
// join chains and two twigs, whose intermediates the planner releases.
var readJoinQueries = []string{
	"/site//item/name", "//listitem//text", "//open_auction[bidder]/itemref",
	"/site/people/person[profile]/name", "//bidder/increase",
}

// TestReleasedIntermediatesStayPrivate: the join pipelines hand every
// intermediate back to the executor, and a counted run its answer too, and
// nothing a caller still holds may be among them. Semi-join results a caller
// keeps survive 100 further queries unchanged, and the five read_join
// queries plus a twig whose output is its root, kept and counted runs
// interleaved from several goroutines on one planner, keep matching the
// pointer evaluator under GOMAXPROCS 1 and 2 (the race detector watches the
// reuse in the race build).
func TestReleasedIntermediatesStayPrivate(t *testing.T) {
	doc := xmltree.XMark(3, 5)
	n, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 24, AdjustFanout: true}})
	if err != nil {
		t.Fatal(err)
	}
	p := query.New(doc, n)
	ref := xpath.NewEngine(doc, xpath.PointerNavigator{})
	queries := append(slices.Clip(readJoinQueries), "//open_auction[bidder]")
	want := make(map[string][]*xmltree.Node, len(queries))
	for _, q := range queries {
		if want[q], err = ref.Query(q); err != nil {
			t.Fatal(err)
		}
		if len(want[q]) == 0 {
			t.Fatalf("%q matches nothing", q)
		}
		if plan, err := p.Plan(q); err != nil || plan.Kind == query.NavPlan {
			t.Fatalf("%q plans %v, %v: want a join or twig plan", q, plan.Kind, err)
		}
	}

	ix, ex := p.Index(), exec.Default()
	kept := [][]core.ID{
		ex.UpwardSemiJoin(n, ix.Postings("site"), ix.Postings("item")),
		ex.ParentSemiJoin(n, ix.Postings("bidder"), ix.Postings("increase")),
	}
	copies := make([][]core.ID, len(kept))
	for i, k := range kept {
		copies[i] = slices.Clone(k)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := p.RunMetered(queries[i%len(queries)], nil, nil, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := range kept {
		if !slices.Equal(kept[i], copies[i]) {
			t.Fatalf("kept result %d changed under 100 further queries", i)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d/serial", procs), func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 5*len(queries); i++ {
						q, keep := queries[(g+i)%len(queries)], g%2 == 0
						res, plan, err := p.RunMetered(q, nil, nil, keep)
						var got []*xmltree.Node
						if err == nil && keep {
							got, err = res.Nodes()
						}
						if err == nil && (res.Len() != len(want[q]) || keep && !slices.Equal(got, want[q])) {
							err = fmt.Errorf("%q [%s] resolve=%v: %d nodes, pointer evaluator %d", q, plan.Kind, keep, res.Len(), len(want[q]))
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
