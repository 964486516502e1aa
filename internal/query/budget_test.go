package query_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
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
// observe the deadline at kernel charge points, navigation plans at the
// pre-walk check.
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
