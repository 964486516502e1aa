package document_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// resultFamilies are the documents TestQueryResult runs over,
// each with the conformance queries that mean something on it (the set of
// query.TestParallelDeterminism: join chains, twigs, navigation fallbacks,
// plus a seed-only chain and the edge cases of the identifier pipeline) and
// the parents its update history writes under.
var resultFamilies = []struct {
	name     string
	build    func() *xmltree.Node
	queries  []string
	parents  []string
	delPos   int
	fragment string
}{
	{
		name:  "xmark",
		build: func() *xmltree.Node { return xmltree.XMark(1, 9) },
		queries: []string{
			"//item", "/site//item/name", "//regions//item//text",
			"//item[name]//text", "//person[profile]/name", "//open_auction[bidder][itemref]/initial",
			"//item[1]", "//title | //name", "//bidder/increase",
			// The pipeline's edge cases: an anchored root with a branch, an
			// output node carrying a branch, a nested predicate, a spine that
			// empties midway, root steps that are not the document element.
			"/site[people]//person/name", "//open_auction[bidder]",
			"//open_auction[bidder[increase]]/itemref", "/site/open_auctions/bidder/increase",
			"/nosuch//name", "/people//name",
		},
		parents:  []string{"/site/open_auctions/open_auction[1]", "/site/open_auctions/open_auction[2]", "/site/regions/*[1]", "/site/people"},
		fragment: "<item><name>n</name><bidder><increase>1</increase></bidder><text>t</text></item>",
	},
	{
		name:  "recursive",
		build: func() *xmltree.Node { return xmltree.Recursive(2, 6) },
		queries: []string{
			"//title", "//section//title", "/book//para", "//section/title",
			"//section[title]//para", "//section[1]", "//section/..",
			"/book[section]//title", "//section[section[title]]/para", "/section//title",
		},
		parents:  []string{"/book/section", "/book/section/section[1]", "/book/section/section[2]"},
		delPos:   2, // past the title and the para: a whole subsection
		fragment: "<section><title>t</title><para>p</para><section><title>u</title></section></section>",
	},
}

// TestQueryResult holds query.Result to the pointer-tree oracle — concrete
// ruid identifiers and the ready-made nodes of a navigation plan — resident
// (serial, default and forced-parallel executors) and paged, on a fresh
// document and again after a random insert/delete
// history: Len, the length of Nodes and the oracle's count are one number,
// Nodes is the oracle's node sequence (what Run returned before answers
// stayed identifiers), and Snapshot.Query is Nodes. A counted run of the
// same query has the oracle's Len and no nodes.
func TestQueryResult(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts document.Options
	}{
		{"resident", document.Options{}},
		{"serial", document.Options{Parallel: exec.Serial}},
		{"forced", document.Options{Parallel: exec.Forced, ExecWorkers: 4}},
		{"paged", document.Options{PoolPages: 16}},
	} {
		kinds := map[query.PlanKind]bool{}
		for _, fam := range resultFamilies {
			d, err := document.FromTree(fam.build(), mode.opts)
			if err != nil {
				t.Fatalf("%s/%s: open: %v", mode.name, fam.name, err)
			}
			check := func(when string) {
				// The oracle climbs a clone: a published tree carries no Parent.
				snap := d.Snapshot()
				clone, of := snap.Tree().CloneWithMap()
				oracle := xpath.NewEngine(clone, xpath.PointerNavigator{})
				for _, q := range fam.queries {
					tag := fmt.Sprintf("%s/%s/%s %q", mode.name, fam.name, when, q)
					want, err := oracle.Query(q)
					if err != nil {
						t.Fatalf("%s: oracle: %v", tag, err)
					}
					res, plan, err := snap.QueryMetered(q, nil, nil, true)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					kinds[plan.Kind] = true
					if res.Len() != len(want) {
						t.Fatalf("%s [%s]: Len = %d, oracle %d", tag, plan.Kind, res.Len(), len(want))
					}
					nodes, err := res.Nodes()
					if err != nil {
						t.Fatalf("%s [%s]: Nodes: %v", tag, plan.Kind, err)
					}
					counted, _, err := snap.QueryMetered(q, nil, nil, false)
					if err != nil || counted.Len() != len(want) {
						t.Fatalf("%s [%s]: counted Len = %d, err %v; oracle %d", tag, plan.Kind, counted.Len(), err, len(want))
					}
					if cn, err := counted.Nodes(); cn != nil || !errors.Is(err, query.ErrCounted) {
						t.Fatalf("%s [%s]: counted Nodes = %d nodes, err %v; want ErrCounted", tag, plan.Kind, len(cn), err)
					}
					viaQuery, _, err := snap.Query(q)
					if err != nil {
						t.Fatalf("%s: Query: %v", tag, err)
					}
					if len(nodes) != len(want) || len(viaQuery) != len(want) {
						t.Fatalf("%s [%s]: Nodes has %d, Query %d, oracle %d", tag, plan.Kind, len(nodes), len(viaQuery), len(want))
					}
					for i := range want {
						if of[nodes[i]] != want[i] || of[viaQuery[i]] != want[i] {
							t.Fatalf("%s [%s]: node %d is not the oracle's", tag, plan.Kind, i)
						}
					}
				}
			}
			check("fresh")
			rng := rand.New(rand.NewSource(35))
			applied := 0
			// A write can miss once deletes have shifted or emptied its parent.
			// A failed write publishes nothing, so it is skipped, not fatal.
			for step := 0; step < 40; step++ {
				parent := fam.parents[rng.Intn(len(fam.parents))]
				if rng.Intn(3) == 0 {
					if _, err := d.Delete(parent, fam.delPos); err == nil {
						applied++
					}
					continue
				}
				sub, err := xmltree.ParseFragment(fam.fragment)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := d.Insert(parent, 0, sub); err == nil {
					applied++
				}
			}
			if applied < 20 {
				t.Fatalf("%s/%s: only %d of 40 writes applied", mode.name, fam.name, applied)
			}
			check("after history")
		}
		// Both forms an answer takes were exercised: join and twig plans on
		// identifiers, navigation on nodes.
		for _, k := range []query.PlanKind{query.JoinPlan, query.TwigPlan, query.NavPlan} {
			if !kinds[k] {
				t.Errorf("%s: no %s plan among the conformance queries", mode.name, k)
			}
		}
	}
}

// TestCountedQueryKeepsNoAnswer: a count-only query writes none of its
// answer down. Once the executor's pools are warm, /site//item/name on
// XMark 20 allocates less than an eighth of what its answer would take as
// identifiers — what every count-only query allocated while the last
// semi-join wrote the answer out only for Len to read its length.
func TestCountedQueryKeepsNoAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pools at random")
	}
	if os.Getenv("RUID_DEBUG") != "" {
		t.Skip("under RUID_DEBUG a counted answer is written out to be checked")
	}
	d, err := document.FromTree(xmltree.XMark(20, 1), document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	const q, runs = "/site//item/name", 100
	res, plan, err := snap.QueryMetered(q, nil, nil, false)
	if err != nil || plan.Kind != query.JoinPlan || res.Len() == 0 {
		t.Fatalf("fixture: %q answered %d by a %s plan, err %v", q, res.Len(), plan.Kind, err)
	}
	// The least of five rounds: a round that a collection (which empties the
	// executor's pools) or another test's goroutine lands in reads high.
	perQuery := math.Inf(1)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			snap.QueryMetered(q, nil, nil, false)
		}
		runtime.ReadMemStats(&after)
		perQuery = min(perQuery, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	answer := float64(res.Len()) * float64(unsafe.Sizeof(core.ID{}))
	if perQuery >= answer/8 {
		t.Fatalf("a counted %q allocates %.0f B, an eighth of its %d-identifier answer is %.0f B", q, perQuery, res.Len(), answer/8)
	}
	t.Logf("a counted %q allocates %.0f B; its answer would take %.0f B", q, perQuery, answer)
}
