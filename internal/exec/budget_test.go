package exec_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// The executor-level budget contract: a metered operation charges postings
// and result rows as it runs, terminates early once a limit trips, and —
// crucially — with limits it never reaches, produces byte-identical output
// to the unmetered executor, in every input representation. There is one
// charge point for the descendant side (index.ForEachRun), so a slice view —
// every posting of which is admitted — costs exactly |ancs| + |descs|
// postings per operation.

func TestMeteredMatchesUnmetered(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs := ix.Postings("section")
	descs := ix.Postings("title")
	e := exec.New(exec.Config{})
	m := budget.NewMeter(context.Background(), budget.Limits{MaxPostings: 1 << 40, MaxResults: 1 << 40})
	me := e.WithMeter(m)
	for view, a := range views(ancs.Materialize()) {
		for dview, d := range views(descs.Materialize()) {
			last := m.Postings()
			charged := func(op string) {
				t.Helper()
				now := m.Postings()
				if want := int64(a.Len() + d.Len()); dview == "slice" && now-last != want {
					t.Errorf("%s/%s/slice: charged %d postings, want |ancs|+|descs| = %d",
						op, view, now-last, want)
				}
				last = now
			}
			equalIDs(t, "semi/"+view+"/"+dview,
				me.UpwardSemiJoin(n, a, d), e.UpwardSemiJoin(n, a, d))
			charged("semi")
			equalIDs(t, "parent/"+view+"/"+dview,
				me.ParentSemiJoin(n, a, d), e.ParentSemiJoin(n, a, d))
			charged("parent")
			// A counting form charges what its materialised form does.
			for _, op := range []struct {
				name  string
				rows  func(*core.Numbering, index.Postings, index.Postings) []core.ID
				count func(*core.Numbering, index.Postings, index.Postings) int
			}{
				{"count_semi", me.UpwardSemiJoin, me.CountUpwardSemiJoin},
				{"count_parent", me.ParentSemiJoin, me.CountParentSemiJoin},
			} {
				p0, r0 := m.Postings(), m.Results()
				rows := op.rows(n, a, d)
				p1, r1 := m.Postings(), m.Results()
				if got := op.count(n, a, d); got != len(rows) || m.Postings()-p1 != p1-p0 || m.Results()-r1 != r1-r0 {
					t.Errorf("%s/%s/%s: counted %d of %d rows, charging %d postings and %d results against %d and %d",
						op.name, view, dview, got, len(rows), m.Postings()-p1, m.Results()-r1, p1-p0, r1-r0)
				}
				last = m.Postings()
			}
			equalIDs(t, "ancsemi/"+view+"/"+dview,
				me.AncestorSemiJoin(n, a, d), e.AncestorSemiJoin(n, a, d))
			charged("ancsemi")
			equalIDs(t, "childsemi/"+view+"/"+dview,
				me.ChildSemiJoin(n, a, d), e.ChildSemiJoin(n, a, d))
			charged("childsemi")
		}
	}
	if err := m.Err(); err != nil {
		t.Fatalf("generous meter tripped: %v", err)
	}
	if m.Postings() == 0 || m.Results() == 0 {
		t.Fatalf("metered run recorded no consumption (postings=%d results=%d)", m.Postings(), m.Results())
	}
}

// TestPostingsBudgetStopsKernels: a tiny postings allowance trips inside
// the operation — whatever view the descendant side arrives in — and the
// scan stops there: refused on the probe side, nothing is scanned; admitted
// there but refused at the first run, nothing is decoded.
func TestPostingsBudgetStopsKernels(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs := ix.Postings("section")
	descs := ix.Postings("title")
	e := exec.New(exec.Config{})
	for view, d := range views(descs.Materialize()) {
		for _, limit := range []int64{1, int64(ancs.Len()) + 1} {
			m := budget.NewMeter(context.Background(), budget.Limits{MaxPostings: limit})
			out := e.WithMeter(m).UpwardSemiJoin(n, ancs, d)
			if !errors.Is(m.Err(), budget.ErrPostingsBudget) {
				t.Fatalf("%s/%d: Err = %v, want ErrPostingsBudget", view, limit, m.Err())
			}
			if len(out) != 0 {
				t.Fatalf("%s/%d: tripped meter produced %d rows", view, limit, len(out))
			}
		}
	}
}

func TestResultBudgetStopsKernels(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs := ix.Postings("section")
	descs := ix.Postings("title")
	e := exec.New(exec.Config{})
	if full := e.UpwardSemiJoin(n, ancs, descs); len(full) < 4 {
		t.Skip("fixture too small to bound results")
	}
	for view, d := range views(descs.Materialize()) {
		m := budget.NewMeter(context.Background(), budget.Limits{MaxResults: 1})
		e.WithMeter(m).UpwardSemiJoin(n, ancs, d)
		if !errors.Is(m.Err(), budget.ErrResultBudget) {
			t.Fatalf("%s: Err = %v, want ErrResultBudget", view, m.Err())
		}
		m = budget.NewMeter(context.Background(), budget.Limits{MaxResults: 1})
		e.WithMeter(m).CountUpwardSemiJoin(n, ancs, d)
		if !errors.Is(m.Err(), budget.ErrResultBudget) {
			t.Fatalf("%s: counted: Err = %v, want ErrResultBudget", view, m.Err())
		}
	}
}

func TestDeadlineStopsKernels(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs := ix.Postings("section")
	descs := ix.Postings("title")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	m := budget.NewMeter(ctx, budget.Limits{})
	out := exec.New(exec.Config{}).WithMeter(m).UpwardSemiJoin(n, ancs, descs)
	if !errors.Is(m.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", m.Err())
	}
	if len(out) != 0 {
		t.Fatalf("expired deadline produced %d rows before the first charge", len(out))
	}
}

// TestPooledScratchDoesNotLeakMeter: after a metered (and tripped)
// operation, a later unmetered operation on the same executor type must see
// clean pooled scratch — full results, no charges against the dead meter.
func TestPooledScratchDoesNotLeakMeter(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs := ix.Postings("section")
	descs := ix.Postings("title")
	e := exec.New(exec.Config{})
	want := e.UpwardSemiJoin(n, ancs, descs)

	m := budget.NewMeter(context.Background(), budget.Limits{MaxPostings: int64(ancs.Len()) + 1})
	e.WithMeter(m).UpwardSemiJoin(n, ancs, descs)
	if !errors.Is(m.Err(), budget.ErrPostingsBudget) {
		t.Fatalf("setup: meter did not trip: %v", m.Err())
	}
	after := m.Postings()

	for i := 0; i < 8; i++ {
		equalIDs(t, "post-trip unmetered", e.UpwardSemiJoin(n, ancs, descs), want)
	}
	if m.Postings() != after {
		t.Fatalf("unmetered operations charged the old meter: %d -> %d", after, m.Postings())
	}
}

var sinkIDs []core.ID

// BenchmarkUnmeteredOverhead measures what the budget plumbing costs a
// query that never attaches a meter (the nil-receiver fast path).
func BenchmarkUnmeteredOverhead(b *testing.B) {
	doc := xmltree.Recursive(2, 9)
	n, err := core.Build(doc, core.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 16, AdjustFanout: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	ix := index.Build(doc.DocumentElement(), n)
	ancs := ix.Postings("section")
	descs := ix.Postings("title")
	e := exec.New(exec.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIDs = e.UpwardSemiJoin(n, ancs, descs)
	}
}
