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
// postings per operation, however many shards cut it.

func TestMeteredMatchesUnmetered(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs := ix.Postings("section")
	descs := ix.Postings("title")
	for _, mode := range []exec.Mode{exec.Serial, exec.Forced} {
		e := exec.New(exec.Config{Mode: mode, Workers: 4})
		m := budget.NewMeter(context.Background(), budget.Limits{MaxPostings: 1 << 40, MaxResults: 1 << 40})
		me := e.WithMeter(m)
		for view, a := range views(ancs.Materialize()) {
			for dview, d := range views(descs.Materialize()) {
				last := m.Postings()
				charged := func(op string) {
					t.Helper()
					now := m.Postings()
					if want := int64(a.Len() + d.Len()); dview == "slice" && now-last != want {
						t.Errorf("%s/%s/%s/slice: charged %d postings, want |ancs|+|descs| = %d",
							mode, op, view, now-last, want)
					}
					last = now
				}
				equalIDs(t, mode.String()+"/semi/"+view+"/"+dview,
					me.UpwardSemiJoin(n, a, d), e.UpwardSemiJoin(n, a, d))
				charged("semi")
				equalPairs(t, mode.String()+"/join/"+view+"/"+dview,
					me.UpwardJoin(n, a, d), e.UpwardJoin(n, a, d))
				charged("join")
				equalPairs(t, mode.String()+"/merge/"+view+"/"+dview,
					me.MergeJoin(n, a, d), e.MergeJoin(n, a, d))
				charged("merge")
				equalIDs(t, mode.String()+"/parent/"+view+"/"+dview,
					me.ParentSemiJoin(n, a, d), e.ParentSemiJoin(n, a, d))
				charged("parent")
				equalIDs(t, mode.String()+"/ancsemi/"+view+"/"+dview,
					me.AncestorSemiJoin(n, a, d), e.AncestorSemiJoin(n, a, d))
				charged("ancsemi")
				equalIDs(t, mode.String()+"/childsemi/"+view+"/"+dview,
					me.ChildSemiJoin(n, a, d), e.ChildSemiJoin(n, a, d))
				charged("childsemi")
			}
		}
		if err := m.Err(); err != nil {
			t.Fatalf("%s: generous meter tripped: %v", mode, err)
		}
		if m.Postings() == 0 || m.Results() == 0 {
			t.Fatalf("%s: metered run recorded no consumption (postings=%d results=%d)",
				mode, m.Postings(), m.Results())
		}
	}
}

// TestPostingsBudgetStopsKernels: a tiny postings allowance trips inside
// the operation — whatever view the descendant side arrives in — and the
// scan stops there.
func TestPostingsBudgetStopsKernels(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs := ix.Postings("section")
	descs := ix.Postings("title")
	for _, mode := range []exec.Mode{exec.Serial, exec.Forced} {
		e := exec.New(exec.Config{Mode: mode, Workers: 4})
		for view, d := range views(descs.Materialize()) {
			m := budget.NewMeter(context.Background(), budget.Limits{MaxPostings: 1})
			out := e.WithMeter(m).UpwardSemiJoin(n, ancs, d)
			if !errors.Is(m.Err(), budget.ErrPostingsBudget) {
				t.Fatalf("%s/%s: Err = %v, want ErrPostingsBudget", mode, view, m.Err())
			}
			// The full result would be descs-sized; a tripped meter must have
			// stopped the scan early.
			if len(out) == descs.Len() {
				t.Fatalf("%s/%s: tripped meter produced the complete result", mode, view)
			}
		}
	}
}

func TestResultBudgetStopsKernels(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs := ix.Postings("section")
	descs := ix.Postings("title")
	full := exec.New(exec.Config{}).UpwardSemiJoin(n, ancs, descs)
	if len(full) < 4 {
		t.Skip("fixture too small to bound results")
	}
	for _, mode := range []exec.Mode{exec.Serial, exec.Forced} {
		e := exec.New(exec.Config{Mode: mode, Workers: 4})
		for view, d := range views(descs.Materialize()) {
			m := budget.NewMeter(context.Background(), budget.Limits{MaxResults: 1})
			e.WithMeter(m).UpwardSemiJoin(n, ancs, d)
			if !errors.Is(m.Err(), budget.ErrResultBudget) {
				t.Fatalf("%s/%s: Err = %v, want ErrResultBudget", mode, view, m.Err())
			}
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
	out := exec.New(exec.Config{Mode: exec.Forced, Workers: 4}).WithMeter(m).UpwardSemiJoin(n, ancs, descs)
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
	e := exec.New(exec.Config{Mode: exec.Forced, Workers: 4})
	want := e.UpwardSemiJoin(n, ancs, descs)

	m := budget.NewMeter(context.Background(), budget.Limits{MaxPostings: 1})
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
	e := exec.New(exec.Config{Mode: exec.Serial})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIDs = e.UpwardSemiJoin(n, ancs, descs)
	}
}
