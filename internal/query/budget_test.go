package query_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// Planner-level budget contract: RunMetered with generous limits matches
// Run exactly; a query that exceeds a limit returns the matching sentinel
// with a nil node-set, whatever plan the query takes.

// runBudget runs q under a fresh meter over ctx and lim, the way the server
// builds one per request, and resolves the answer.
func runBudget(p *query.Planner, ctx context.Context, q string, lim budget.Limits) ([]*xmltree.Node, query.Plan, error) {
	res, plan, err := p.RunMetered(q, nil, budget.NewMeter(ctx, lim))
	if err != nil {
		if res.Len() != 0 {
			panic("a failed query returned a non-empty Result")
		}
		return nil, plan, err
	}
	nodes, err := res.Nodes()
	return nodes, plan, err
}

func TestRunBudgetGenerousMatchesRun(t *testing.T) {
	p := newPlanner(t, xmltree.XMark(2, 9))
	for _, q := range []string{"/site//item/name", "//regions//item", "//item[1]"} {
		want, _, err := p.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := runBudget(p, context.Background(), q,
			budget.Limits{MaxPostings: 1 << 40, MaxResults: 1 << 40})
		if err != nil {
			t.Fatalf("RunBudget(%q): %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("RunBudget(%q) = %d nodes, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("RunBudget(%q): node %d differs", q, i)
			}
		}
	}
}

func TestRunBudgetPostingsSentinel(t *testing.T) {
	p := newPlanner(t, xmltree.XMark(2, 9))
	nodes, plan, err := runBudget(p, context.Background(), "/site//item/name",
		budget.Limits{MaxPostings: 2})
	if !errors.Is(err, budget.ErrPostingsBudget) {
		t.Fatalf("err = %v (plan %s), want ErrPostingsBudget", err, plan.Kind)
	}
	if nodes != nil {
		t.Fatalf("budget-exceeded query returned %d nodes, want nil", len(nodes))
	}
}

func TestRunBudgetResultSentinel(t *testing.T) {
	p := newPlanner(t, xmltree.XMark(2, 9))
	full, _, err := p.Run("//item")
	if err != nil || len(full) < 2 {
		t.Fatalf("fixture: %d items, err %v", len(full), err)
	}
	nodes, _, err := runBudget(p, context.Background(), "//item",
		budget.Limits{MaxResults: 1})
	if !errors.Is(err, budget.ErrResultBudget) {
		t.Fatalf("err = %v, want ErrResultBudget", err)
	}
	if nodes != nil {
		t.Fatalf("budget-exceeded query returned %d nodes, want nil", len(nodes))
	}
}

// TestRunBudgetDeadline covers both plan families: identifier pipelines
// observe the deadline at kernel charge points, navigation plans before the
// walk and inside it (TestRunBudgetDeadlineInsideWalk).
func TestRunBudgetDeadline(t *testing.T) {
	p := newPlanner(t, xmltree.XMark(2, 9))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, q := range []string{"/site//item/name", "//item[1]"} {
		nodes, _, err := runBudget(p, ctx, q, budget.Limits{})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("RunBudget(%q) err = %v, want DeadlineExceeded", q, err)
		}
		if nodes != nil {
			t.Fatalf("RunBudget(%q) returned nodes past its deadline", q)
		}
	}
}

// expiringCtx is a context whose Err turns non-nil on its n-th call: a
// deadline that passes while the query runs, without a clock.
type expiringCtx struct {
	context.Context
	calls, n int
}

func (c *expiringCtx) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.DeadlineExceeded
	}
	return nil
}

// TestRunBudgetDeadlineInsideWalk: a navigation plan samples its meter as it
// walks, so a deadline that passes mid-query stops it there — the sentinel,
// an empty Result, and fewer candidates visited than the document holds,
// where running to completion visits every node more than once.
func TestRunBudgetDeadlineInsideWalk(t *testing.T) {
	doc := xmltree.XMark(20, 9)
	p := newPlanner(t, doc)
	reg := obs.NewRegistry()
	p.SetObserver(reg)
	const q = "//*[contains(., 'no such text')]"
	if _, plan, err := p.RunMetered(q, nil, nil); err != nil || plan.Kind != query.NavPlan {
		t.Fatalf("fixture: plan %s, err %v", plan.Kind, err)
	}
	visited := reg.Counter("query.nav_visited")
	nodes := uint64(xmltree.CountNodes(doc))
	if full := visited.Value(); full < nodes {
		t.Fatalf("fixture: the whole walk visits %d candidates over %d nodes", full, nodes)
	}
	before := visited.Value()
	ctx := &expiringCtx{Context: context.Background(), n: 3} // entry check, then two samples
	res, _, err := p.RunMetered(q, nil, budget.NewMeter(ctx, budget.Limits{}))
	if !errors.Is(err, context.DeadlineExceeded) || res.Len() != 0 {
		t.Fatalf("err = %v with %d results, want DeadlineExceeded and none", err, res.Len())
	}
	if got := visited.Value() - before; got == 0 || got >= nodes {
		t.Fatalf("stopped walk visited %d candidates of a %d-node document", got, nodes)
	}
}

// TestRunBudgetMeterObservable: the server inspects consumption through a
// caller-owned meter after RunMetered.
func TestRunBudgetMeterObservable(t *testing.T) {
	p := newPlanner(t, xmltree.XMark(2, 9))
	m := budget.NewMeter(context.Background(), budget.Limits{MaxPostings: 1 << 40, MaxResults: 1 << 40})
	if _, _, err := p.RunMetered("/site//item/name", nil, m); err != nil {
		t.Fatal(err)
	}
	if m.Postings() == 0 || m.Results() == 0 {
		t.Fatalf("meter recorded nothing: postings=%d results=%d", m.Postings(), m.Results())
	}
}
