package query_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func newPlanner(t *testing.T, doc *xmltree.Node) *query.Planner {
	t.Helper()
	n, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{
		MaxAreaNodes: 24, AdjustFanout: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return query.New(doc, n)
}

// TestPlannerChoosesJoinForSelectiveChains: a selective name chain on a
// large document should compile to a join plan; non-compilable queries must
// fall back to navigation.
func TestPlannerChoosesJoinForSelectiveChains(t *testing.T) {
	doc := xmltree.XMark(4, 3)
	p := newPlanner(t, doc)

	plan, err := p.Plan("//people//person//profile")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != query.JoinPlan {
		t.Fatalf("selective chain planned as %s: %s", plan.Kind, plan.Explain())
	}
	if plan.JoinCst >= plan.NavCost {
		t.Fatalf("join plan chosen with higher estimate: %s", plan.Explain())
	}

	for _, q := range []string{"//item[1]/name", "//a | //b", "//item/*", "descendant::item"} {
		plan, err := p.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kind != query.NavPlan {
			t.Fatalf("%q planned as %s, want nav", q, plan.Kind)
		}
	}
	if plan.Explain() == "" {
		t.Fatal("empty explain")
	}
}

// TestPlannerRootAnchoring: /name anchors at the root element, //name does
// not.
func TestPlannerRootAnchoring(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><a><b/></a><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlanner(t, doc)
	got, plan, err := p.Run("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != query.JoinPlan && plan.Kind != query.NavPlan {
		t.Fatalf("unexpected plan kind")
	}
	// /a/b = b children of the ROOT a only.
	if len(got) != 1 || got[0].Parent != doc.DocumentElement() {
		t.Fatalf("/a/b = %d results", len(got))
	}
	got, _, err = p.Run("//a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("//a/b = %d results, want 2", len(got))
	}
}

// TestPlannerTwig: name-test patterns compile to identifier plans — twig
// when they branch, join when they do not — and return engine-identical
// results under serial and forced-parallel executors. The edge cases of the
// one pipeline ride along: an anchored root with a branch, an output node
// carrying a branch, a nested predicate, a spine that empties midway, and
// a root step that is not the document element.
func TestPlannerTwig(t *testing.T) {
	doc := xmltree.XMark(2, 5)
	p := newPlanner(t, doc)
	ref := xpath.NewEngine(doc, xpath.PointerNavigator{})
	cases := []struct {
		q    string
		kind query.PlanKind
	}{
		{"//item[name]//text", query.TwigPlan},
		{"//person[profile]/name", query.TwigPlan},
		{"//open_auction[bidder][itemref]/initial", query.TwigPlan},
		{"/site[people]//person/name", query.TwigPlan},
		{"//open_auction[bidder]", query.TwigPlan},
		{"//open_auction[bidder[increase]]/itemref", query.TwigPlan},
		{"/site/open_auctions/bidder/increase", query.JoinPlan},
		{"/nosuch//name", query.JoinPlan},
		{"/people//name", query.JoinPlan},
	}
	for _, mode := range []exec.Mode{exec.Serial, exec.Forced} {
		p.SetExecutor(exec.New(exec.Config{Mode: mode, Workers: 4}))
		for _, c := range cases {
			got, plan, err := p.Run(c.q)
			if err != nil {
				t.Fatalf("%s: Run(%q): %v", mode, c.q, err)
			}
			if plan.Kind != c.kind {
				t.Fatalf("%q planned as %s, want %s: %s", c.q, plan.Kind, c.kind, plan.Explain())
			}
			want, err := ref.Query(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: Run(%q) = %d nodes, want %d", mode, c.q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: Run(%q): node %d differs", mode, c.q, i)
				}
			}
		}
	}
}

// TestPlannerGuidePruning: an impossible name chain returns empty without
// error, and the guide is exposed for inspection.
func TestPlannerGuidePruning(t *testing.T) {
	doc := xmltree.Recursive(2, 5)
	p := newPlanner(t, doc)
	if p.Guide() == nil || p.Guide().Size() == 0 {
		t.Fatal("guide missing")
	}
	// "title//section" is impossible (titles are leaves): the join plan
	// must be pruned to an empty result.
	got, plan, err := p.Run("//title//section")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("impossible chain returned %d nodes (plan %s)", len(got), plan.Kind)
	}
	// Sanity: a possible chain still works after pruning was added.
	got, _, err = p.Run("//section//title")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatalf("possible chain returned nothing")
	}
}
