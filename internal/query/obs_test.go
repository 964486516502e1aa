package query_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// TestExplainRejectedAlternative pins the Explain contract: the nav
// rendering names the identifier plan the cost model rejected (satellite of
// the observability PR — a plan decision must be auditable from its
// rendering alone).
func TestExplainRejectedAlternative(t *testing.T) {
	p := newPlanner(t, xmltree.Recursive(2, 7))

	// A chain over names that dominate the document: the join estimate
	// loses to navigation, but the chain still compiled.
	plan, err := p.Plan("//section//section//section//section")
	if err != nil {
		t.Fatal(err)
	}
	ex := plan.Explain()
	if plan.Kind == query.NavPlan {
		if !strings.Contains(ex, "rejected join pipeline") || !strings.Contains(ex, "est ") {
			t.Errorf("nav Explain lacks rejected alternative: %q", ex)
		}
	} else if !strings.Contains(ex, "vs nav") {
		t.Errorf("identifier Explain lacks nav estimate: %q", ex)
	}

	// A navigation-only query (predicate): no identifier plan applies.
	plan, err = p.Plan("//section[1]")
	if err != nil {
		t.Fatal(err)
	}
	if ex := plan.Explain(); !strings.Contains(ex, "no identifier plan applies") {
		t.Errorf("pure-nav Explain = %q", ex)
	}

	// A chosen join plan must carry both estimates.
	plan, err = p.Plan("//section//title")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != query.JoinPlan {
		t.Fatalf("//section//title planned as %s", plan.Kind)
	}
	if ex := plan.Explain(); !strings.Contains(ex, "vs nav") {
		t.Errorf("join Explain lacks nav estimate: %q", ex)
	}
}

// TestRunMeteredTraced drives the EXPLAIN ANALYZE pipeline end to end: the traced
// run returns the same nodes as the untraced one, and the rendered trace
// carries the plan decision, one span per pipeline stage with
// cardinalities, and the seek kernels' block statistics.
func TestRunMeteredTraced(t *testing.T) {
	p := newPlanner(t, xmltree.Recursive(2, 9))
	reg := obs.NewRegistry()
	p.SetObserver(reg)

	want, _, err := p.Run("//section//title")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("//section//title")
	res, plan, err := p.RunMetered("//section//title", tr, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != query.JoinPlan {
		t.Fatalf("planned as %s", plan.Kind)
	}
	if len(got) != len(want) {
		t.Fatalf("traced run: %d nodes, untraced %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("traced node %d differs", i)
		}
	}

	var sb strings.Builder
	tr.Render(&sb)
	out := sb.String()
	for _, wantSub := range []string{
		"trace //section//title", "plan=join",
		"seed //section", "//title upward_semi_join",
		"ancs=", "descs=", "out=", "resolve", "ids=",
	} {
		if !strings.Contains(out, wantSub) {
			t.Errorf("trace missing %q:\n%s", wantSub, out)
		}
	}
	ended := 0
	for _, sp := range tr.Spans() {
		if !sp.Ended() {
			t.Errorf("span %q not ended", sp.Name())
		}
		ended++
	}
	if ended < 3 { // plan, seed, join step, resolve
		t.Fatalf("only %d spans recorded:\n%s", ended, out)
	}

	// The span under the semi-join stage must have seen the block kernels.
	var blocks int64
	for _, sp := range tr.Spans() {
		adm, skip, _, _ := sp.Blocks()
		blocks += adm + skip
	}
	if blocks == 0 {
		t.Errorf("no block statistics in any span:\n%s", out)
	}

	// Registry side: the query counted, the plan kind counted, latency
	// observed.
	if reg.Counter("query.count").Value() != 2 { // Run + RunMetered
		t.Errorf("query.count = %d", reg.Counter("query.count").Value())
	}
	if reg.Counter("query.plan_join").Value() != 2 {
		t.Errorf("query.plan_join = %d", reg.Counter("query.plan_join").Value())
	}
	if reg.Histogram("query.query_ns").Count() != 2 {
		t.Errorf("query.query_ns count = %d", reg.Histogram("query.query_ns").Count())
	}

	// A twig runs through the same pipeline, traced step by step: the seed,
	// then one span per semi-join — the branch [para] filtering the seed,
	// then the spine step to title — each with its cardinalities and the
	// block statistics of its kernel.
	const twigQ = "//section[para]/title"
	tr = obs.NewTrace(twigQ)
	res, plan, err = p.RunMetered(twigQ, tr, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != query.TwigPlan {
		t.Fatalf("%s planned as %s", twigQ, plan.Kind)
	}
	if res.Len() == 0 {
		t.Fatalf("%s matched nothing", twigQ)
	}
	var steps []string
	for _, sp := range tr.Spans() {
		if !strings.HasSuffix(sp.Name(), "_semi_join") {
			continue
		}
		steps = append(steps, sp.Name())
		if !sp.Ended() {
			t.Errorf("span %q not ended", sp.Name())
		}
		for _, key := range []string{"ancs", "descs", "out"} {
			if _, ok := sp.Int(key); !ok {
				t.Errorf("span %q lacks %s=", sp.Name(), key)
			}
		}
		if adm, skip, _, _ := sp.Blocks(); adm+skip == 0 {
			t.Errorf("span %q carries no block statistics", sp.Name())
		}
	}
	if want := []string{"section[para] child_semi_join", "/title parent_semi_join"}; !slices.Equal(steps, want) {
		t.Errorf("twig semi-join spans = %q, want %q", steps, want)
	}
	sb.Reset()
	tr.Render(&sb)
	if !strings.Contains(sb.String(), "seed //section") {
		t.Errorf("twig trace missing its seed span:\n%s", sb.String())
	}
}

// TestRunMeteredTracedNavAndPruned covers the two non-pipeline exits: a navigation
// fallback records a navigate span, and a DataGuide-pruned chain records
// the pruning note without executing a single join.
func TestRunMeteredTracedNavAndPruned(t *testing.T) {
	p := newPlanner(t, xmltree.Recursive(2, 7))
	reg := obs.NewRegistry()
	p.SetObserver(reg)

	tr := obs.NewTrace("//section[1]")
	_, plan, err := p.RunMetered("//section[1]", tr, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != query.NavPlan {
		t.Fatalf("predicate query planned as %s", plan.Kind)
	}
	var sb strings.Builder
	tr.Render(&sb)
	if !strings.Contains(sb.String(), "navigate") || !strings.Contains(sb.String(), "visited=") {
		t.Errorf("nav trace missing navigate span or its visited count:\n%s", sb.String())
	}
	if reg.Counter("query.nav_visited").Value() == 0 {
		t.Errorf("query.nav_visited did not move on a navigation plan")
	}

	tr = obs.NewTrace("//section//nosuchname")
	got, _, err := p.RunMetered("//section//nosuchname", tr, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("pruned query returned %d nodes", got.Len())
	}
	sb.Reset()
	tr.Render(&sb)
	if !strings.Contains(sb.String(), "dataguide") {
		t.Errorf("pruned trace missing dataguide note:\n%s", sb.String())
	}
	if reg.Counter("query.guide_pruned").Value() != 1 {
		t.Errorf("query.guide_pruned = %d", reg.Counter("query.guide_pruned").Value())
	}
}
