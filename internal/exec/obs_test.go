package exec_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/obs"
)

// TestObservedAgreesWithPlain requires that attaching a registry and a span
// changes nothing about an operation's output — every executor runs the one
// path, a sink only keeps what it gathers — in every mode and descendant
// view, while actually populating both sinks.
func TestObservedAgreesWithPlain(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs := ix.Postings("section")
	for _, mode := range []exec.Mode{exec.Serial, exec.Auto, exec.Forced} {
		for kind, descs := range views(ix.RuidIDs("title")) {
			plain := exec.New(exec.Config{Mode: mode, Workers: 4})
			reg := obs.NewRegistry()
			tr := obs.NewTrace("//section//title")
			sp := tr.StartSpan("upward_semi_join")
			observed := exec.New(exec.Config{Mode: mode, Workers: 4, Observe: reg}).WithSpan(sp)

			tag := mode.String() + "/" + kind
			equalIDs(t, "UpwardSemiJoin/"+tag,
				observed.UpwardSemiJoin(n, ancs, descs), plain.UpwardSemiJoin(n, ancs, descs))
			equalPairs(t, "UpwardJoin/"+tag,
				observed.UpwardJoin(n, ancs, descs), plain.UpwardJoin(n, ancs, descs))
			equalPairs(t, "MergeJoin/"+tag,
				observed.MergeJoin(n, ancs, descs), plain.MergeJoin(n, ancs, descs))
			equalIDs(t, "ParentSemiJoin/"+tag,
				observed.ParentSemiJoin(n, ancs, descs), plain.ParentSemiJoin(n, ancs, descs))
			equalIDs(t, "AncestorSemiJoin/"+tag,
				observed.AncestorSemiJoin(n, ancs, descs), plain.AncestorSemiJoin(n, ancs, descs))
			equalIDs(t, "ChildSemiJoin/"+tag,
				observed.ChildSemiJoin(n, ancs, descs), plain.ChildSemiJoin(n, ancs, descs))
			sp.End()

			if got := reg.Counter("exec.ops").Value(); got != 6 {
				t.Errorf("%s: exec.ops = %d, want 6", tag, got)
			}
			if reg.Histogram("exec.op_ns").Count() != 6 {
				t.Errorf("%s: exec.op_ns count = %d", tag, reg.Histogram("exec.op_ns").Count())
			}
			// Every operation records its shards, a single-shard one included.
			if got := reg.Counter("exec.shards").Value(); got < 6 {
				t.Errorf("%s: exec.shards = %d, want at least one per operation", tag, got)
			}
			// Block-backed inputs must surface seek statistics even serially:
			// every block is either admitted or skipped, never lost. A slice
			// has no blocks to count.
			adm := int64(reg.Counter("index.blocks_admitted").Value())
			skip := int64(reg.Counter("index.blocks_skipped").Value())
			if (adm == 0) != (kind == "slice") {
				t.Errorf("%s: %d blocks admitted recorded", tag, adm)
			}
			sAdm, sSkip, _, _ := sp.Blocks()
			if sAdm != adm || sSkip != skip {
				t.Errorf("%s: span blocks (%d, %d) != registry (%d, %d)", tag, sAdm, sSkip, adm, skip)
			}
			if len(sp.ShardNS()) == 0 {
				t.Errorf("%s: no per-shard durations recorded", tag)
			}
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
// propagation under observation: a shard panic re-raises on the caller with
// registry and span attached, the span can still be closed (no abandoned
// spans), and the scratch pools stay serviceable — the next operation on
// the same executor completes and agrees with the unobserved oracle.
func TestPanicPropagatesWithTracing(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs, descs := ix.Postings("section"), ix.Postings("title")

	reg := obs.NewRegistry()
	tr := obs.NewTrace("//section//title")
	sp := tr.StartSpan("doomed")
	e := exec.New(exec.Config{Mode: exec.Forced, Workers: 4, Observe: reg}).WithSpan(sp)

	var descIDs []core.ID
	descIDs = descs.AppendAll(descIDs)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("panic did not propagate through the traced executor")
			}
			sp.End()
		}()
		// A poisoned numbering makes the shard kernels panic mid-flight.
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
	want := index.UpwardSemiJoinPostings(n, index.SlicePostings(ancs.Materialize()), index.SlicePostings(descIDs))
	equalIDs(t, "UpwardSemiJoin after panic", got, want)
	if reg.Counter("exec.ops").Value() == 0 {
		t.Fatal("no operations recorded after recovery")
	}
}
