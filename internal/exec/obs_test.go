package exec_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
)

// TestObservedAgreesWithPlain requires that attaching a registry and a span
// changes nothing about an operation's output — every executor runs the one
// path, a sink only keeps what it gathers — in every descendant view, while
// actually populating both sinks.
func TestObservedAgreesWithPlain(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs := ix.Postings("section")
	for kind, descs := range views(ix.RuidIDs("title")) {
		plain := exec.New(exec.Config{})
		reg := obs.NewRegistry()
		tr := obs.NewTrace("//section//title")
		sp := tr.StartSpan("upward_semi_join")
		observed := exec.New(exec.Config{Observe: reg}).WithSpan(sp)

		equalIDs(t, "UpwardSemiJoin/"+kind,
			observed.UpwardSemiJoin(n, ancs, descs), plain.UpwardSemiJoin(n, ancs, descs))
		equalIDs(t, "ParentSemiJoin/"+kind,
			observed.ParentSemiJoin(n, ancs, descs), plain.ParentSemiJoin(n, ancs, descs))
		equalIDs(t, "AncestorSemiJoin/"+kind,
			observed.AncestorSemiJoin(n, ancs, descs), plain.AncestorSemiJoin(n, ancs, descs))
		equalIDs(t, "ChildSemiJoin/"+kind,
			observed.ChildSemiJoin(n, ancs, descs), plain.ChildSemiJoin(n, ancs, descs))
		sp.End()

		if got := reg.Counter("exec.ops").Value(); got != 4 {
			t.Errorf("%s: exec.ops = %d, want 4", kind, got)
		}
		if reg.Histogram("exec.op_ns").Count() != 4 {
			t.Errorf("%s: exec.op_ns count = %d", kind, reg.Histogram("exec.op_ns").Count())
		}
		// Block-backed inputs must surface seek statistics: every block is
		// either admitted or skipped, never lost. A slice has no blocks to
		// count.
		adm := int64(reg.Counter("index.blocks_admitted").Value())
		skip := int64(reg.Counter("index.blocks_skipped").Value())
		if (adm == 0) != (kind == "slice") {
			t.Errorf("%s: %d blocks admitted recorded", kind, adm)
		}
		sAdm, sSkip, _, _ := sp.Blocks()
		if sAdm != adm || sSkip != skip {
			t.Errorf("%s: span blocks (%d, %d) != registry (%d, %d)", kind, sAdm, sSkip, adm, skip)
		}
	}
}

// TestWithSpanIdentity pins the zero-cost contract: WithSpan(nil) on an
// untraced executor is the identity, so the planner can call it
// unconditionally.
func TestWithSpanIdentity(t *testing.T) {
	e := exec.New(exec.Config{})
	if e.WithSpan(nil) != e {
		t.Fatal("WithSpan(nil) did not return the receiver")
	}
	tr := obs.NewTrace("q")
	sp := tr.StartSpan("s")
	te := e.WithSpan(sp)
	if te == e {
		t.Fatal("WithSpan(span) returned the receiver")
	}
	if te.WithSpan(nil) == te {
		t.Fatal("WithSpan(nil) on a traced executor must detach the span")
	}
}

// TestPanicPropagatesWithTracing is the regression test for panic
// propagation under observation: a kernel panic reaches the caller with
// registry and span attached, the span can still be closed (no abandoned
// spans), and the scratch pools stay serviceable — the next operation on
// the same executor completes and agrees with the unobserved oracle.
func TestPanicPropagatesWithTracing(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs, descs := ix.Postings("section"), ix.Postings("title")

	reg := obs.NewRegistry()
	tr := obs.NewTrace("//section//title")
	sp := tr.StartSpan("doomed")
	e := exec.New(exec.Config{Observe: reg}).WithSpan(sp)

	descIDs := descs.Materialize()
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("panic did not propagate through the traced executor")
			}
			sp.End()
		}()
		// A poisoned numbering makes the scan panic mid-flight.
		e.UpwardSemiJoin(nil, ancs, descs)
		t.Fatal("unreachable: operation returned")
	}()
	if !sp.Ended() {
		t.Fatal("span abandoned after panic")
	}
	tr.Finish()

	// The pools and both sinks must still work.
	sp2 := tr.StartSpan("recovered")
	got := e.WithSpan(sp2).UpwardSemiJoin(n, ancs, descs)
	sp2.End()
	equalIDs(t, "UpwardSemiJoin after panic", got, oracle(t, n, ancs.Materialize(), descIDs).up)
	if reg.Counter("exec.ops").Value() == 0 {
		t.Fatal("no operations recorded after recovery")
	}
}
