package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/xmltree"
)

func buildFixture(t *testing.T, depth int) (*core.Numbering, *index.NameIndex) {
	t.Helper()
	doc := xmltree.Recursive(2, depth)
	n, err := core.Build(doc, core.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 16, AdjustFanout: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, index.Build(doc.DocumentElement(), n)
}

func equalIDs(t *testing.T, op string, got, want []core.ID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ids, want %d", op, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: id %d: %v, want %v", op, i, got[i], want[i])
		}
	}
}

// subsample keeps a pseudo-random subsequence of ids, preserving document
// order — join inputs in real plans are arbitrary sorted subsets of
// postings, not always whole lists.
func subsample(r *rand.Rand, ids []core.ID, keep float64) []core.ID {
	out := make([]core.ID, 0, len(ids))
	for _, id := range ids {
		if r.Float64() < keep {
			out = append(out, id)
		}
	}
	return out
}

// views returns the representations a posting run can reach the executor
// in: the plain slice view (intermediate pipeline results) and the
// block-compressed view (index-resident postings, rebuilt here from the
// same identifiers).
func views(ids []core.ID) map[string]index.Postings {
	return map[string]index.Postings{
		"slice": index.SlicePostings(ids),
		"block": index.BlockPostings(index.BuildPostingList(ids)),
	}
}

// semiJoins is the four semi-joins' answers for one input pair.
type semiJoins struct{ up, parent, anc, child []core.ID }

// oracle computes the four semi-joins by brute force: every descendant's
// ancestor chain is climbed by RParent and looked up in a Go map — no probe,
// no window, no skip test, no pooled memory.
func oracle(t *testing.T, n *core.Numbering, ancs, descs []core.ID) semiJoins {
	t.Helper()
	inAncs := make(map[core.ID]bool, len(ancs))
	for _, a := range ancs {
		inAncs[a] = true
	}
	var o semiJoins
	hitAnc, hitChild := make(map[core.ID]bool), make(map[core.ID]bool)
	for _, d := range descs {
		found := false
		for cur, first := d, true; ; first = false {
			p, ok, err := n.RParent(cur)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if inAncs[p] {
				if first {
					o.parent = append(o.parent, d)
					hitChild[p] = true
				}
				found = true
				hitAnc[p] = true
			}
			cur = p
		}
		if found {
			o.up = append(o.up, d)
		}
	}
	for _, a := range ancs {
		if hitAnc[a] {
			o.anc = append(o.anc, a)
		}
		if hitChild[a] {
			o.child = append(o.child, a)
		}
	}
	return o
}

// sameSemiJoins runs every executor operation over ancs and descs and holds
// it to want.
func sameSemiJoins(t *testing.T, tag string, e *exec.Executor, n *core.Numbering, ancs, descs index.Postings, want semiJoins) {
	t.Helper()
	equalIDs(t, "UpwardSemiJoin"+tag, e.UpwardSemiJoin(n, ancs, descs), want.up)
	equalIDs(t, "ParentSemiJoin"+tag, e.ParentSemiJoin(n, ancs, descs), want.parent)
	if got := e.CountUpwardSemiJoin(n, ancs, descs); got != len(want.up) {
		t.Errorf("CountUpwardSemiJoin%s = %d, want %d", tag, got, len(want.up))
	}
	if got := e.CountParentSemiJoin(n, ancs, descs); got != len(want.parent) {
		t.Errorf("CountParentSemiJoin%s = %d, want %d", tag, got, len(want.parent))
	}
	equalIDs(t, "AncestorSemiJoin"+tag, e.AncestorSemiJoin(n, ancs, descs), want.anc)
	equalIDs(t, "ChildSemiJoin"+tag, e.ChildSemiJoin(n, ancs, descs), want.child)
}

// TestParallelAgreesWithSerial runs every executor operation over
// randomized document-order subsets of real postings, in every combination
// of slice and block input views, and requires byte-identical output versus
// the brute-force oracle.
func TestParallelAgreesWithSerial(t *testing.T) {
	n, ix := buildFixture(t, 9)
	e := exec.New(exec.Config{})
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		ancs := subsample(r, ix.RuidIDs("section"), 0.7)
		descs := subsample(r, ix.RuidIDs("title"), 0.7)
		if trial == 0 {
			ancs, descs = ix.RuidIDs("section"), ix.RuidIDs("title")
		}
		want := oracle(t, n, ancs, descs)
		for aKind, aView := range views(ancs) {
			for dKind, dView := range views(descs) {
				sameSemiJoins(t, "/"+aKind+"-"+dKind, e, n, aView, dView, want)
			}
		}
	}
}

// TestIndexPostingsAgree drives the executor with the index's own resident
// block-compressed lists (not rebuilt ones) against the oracle.
func TestIndexPostingsAgree(t *testing.T) {
	n, ix := buildFixture(t, 9)
	want := oracle(t, n, ix.RuidIDs("section"), ix.RuidIDs("title"))
	sameSemiJoins(t, "", exec.New(exec.Config{}), n, ix.Postings("section"), ix.Postings("title"), want)
}

// TestParallelNestedJoin runs the semi-joins on a deeply nested list joined
// with itself: sections nested under sections, where a descendant's
// ancestor lies in an earlier block of the same list. Block-backed
// descendants cut the scan into several runs.
func TestParallelNestedJoin(t *testing.T) {
	n, ix := buildFixture(t, 9)
	secs := ix.RuidIDs("section")
	want := oracle(t, n, secs, secs)
	if len(want.up) == 0 || len(want.up) == len(secs) {
		t.Fatalf("fixture nests %d of %d sections", len(want.up), len(secs))
	}
	for kind, view := range views(secs) {
		sameSemiJoins(t, "(section,section)/"+kind, exec.New(exec.Config{}), n, view, view, want)
	}
}

// TestEmptyAndTinyInputs drives the degenerate shapes through both input
// views: empty sides, single elements, lists shorter than a block.
func TestEmptyAndTinyInputs(t *testing.T) {
	n, ix := buildFixture(t, 5)
	titles := ix.RuidIDs("title")
	e := exec.New(exec.Config{})
	for kind, view := range views(titles) {
		if got := e.UpwardSemiJoin(n, index.SlicePostings(nil), view); len(got) != 0 {
			t.Fatalf("%s empty ancs: got %d ids", kind, len(got))
		}
		if got := e.AncestorSemiJoin(n, view, index.SlicePostings(nil)); len(got) != 0 {
			t.Fatalf("%s empty descs: got %d ids", kind, len(got))
		}
		if got := e.AncestorSemiJoin(n, view, index.BlockPostings(nil)); len(got) != 0 {
			t.Fatalf("%s empty block descs: got %d ids", kind, len(got))
		}
	}
	for _, ids := range [][]core.ID{titles[:1], titles[:min(3, len(titles))]} {
		want := oracle(t, n, ids, ids)
		for kind, view := range views(ids) {
			sameSemiJoins(t, fmt.Sprintf("/%d-%s", len(ids), kind), e, n, view, view, want)
		}
	}
}

// TestDefaultExecutor sanity-checks the process-wide executor.
func TestDefaultExecutor(t *testing.T) {
	e := exec.Default()
	if e == nil || exec.Default() != e {
		t.Fatalf("default executor %p, then %p", e, exec.Default())
	}
	n, ix := buildFixture(t, 7)
	want := oracle(t, n, ix.RuidIDs("section"), ix.RuidIDs("title"))
	equalIDs(t, "default", e.UpwardSemiJoin(n, ix.Postings("section"), ix.Postings("title")), want.up)
}

// TestReleaseIDs: a released result goes back for reuse, and a second
// release of it panics, as IDSet.Release does. A result that was never
// released stays the caller's: later operations drawing results do not
// touch it.
func TestReleaseIDs(t *testing.T) {
	n, ix := buildFixture(t, 8)
	ex := exec.New(exec.Config{})
	kept := ex.UpwardSemiJoin(n, ix.Postings("section"), ix.Postings("title"))
	want := append([]core.ID(nil), kept...)
	for i := 0; i < 20; i++ {
		r := ex.ParentSemiJoin(n, ix.Postings("section"), ix.Postings("para"))
		if len(r) == 0 {
			t.Fatal("fixture joins nothing")
		}
		exec.ReleaseIDs(r)
	}
	equalIDs(t, "kept result after released ones", kept, want)

	r := ex.AncestorSemiJoin(n, ix.Postings("section"), ix.Postings("title"))
	exec.ReleaseIDs(r)
	defer func() {
		if recover() == nil {
			t.Fatal("second ReleaseIDs of one result did not panic")
		}
	}()
	exec.ReleaseIDs(r)
}
