package exec_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/scheme"
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
		t.Fatalf("%s: parallel %d ids, serial %d", op, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: id %d: parallel %v serial %v", op, i, got[i], want[i])
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

// memSource is the minimal index.BlockSource: a paged list's delta bytes in
// a plain byte slice.
type memSource []byte

func (m memSource) ReadRange(off, end uint32, dst []byte) ([]byte, error) {
	return append(dst, m[off:end]...), nil
}

// views returns the representations a posting run can reach the executor
// in: the plain slice view (intermediate pipeline results), the
// block-compressed view (index-resident postings, rebuilt here from the
// same identifiers) and the paged view (a cold-opened document's postings:
// the same blocks, faulted through a BlockSource on every decode).
func views(ids []core.ID) map[string]index.Postings {
	pl := index.BuildPostingList(ids)
	paged := pl
	if pl != nil {
		data, err := pl.DataBytes()
		if err == nil {
			paged, err = index.PagedPostingList(pl.Skips(), pl.Len(), len(data), memSource(data))
		}
		if err != nil {
			panic(err)
		}
	}
	return map[string]index.Postings{
		"slice": index.SlicePostings(ids),
		"block": index.BlockPostings(pl),
		"paged": index.BlockPostings(paged),
	}
}

// TestParallelAgreesWithSerial runs every executor operation in Serial mode
// and in Forced mode at several worker counts over randomized document-order
// subsets of real postings, in every combination of slice, block and paged
// input views, and requires byte-identical output versus the serial
// flat-slice oracle.
func TestParallelAgreesWithSerial(t *testing.T) {
	n, ix := buildFixture(t, 9)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		ancs := subsample(r, ix.RuidIDs("section"), 0.7)
		descs := subsample(r, ix.RuidIDs("title"), 0.7)
		if trial == 0 {
			ancs, descs = ix.RuidIDs("section"), ix.RuidIDs("title")
		}
		sAncs, sDescs := index.SlicePostings(ancs), index.SlicePostings(descs)
		wantUpSemi := scheme.UpwardSemiJoinPostings(n, sAncs, sDescs)
		wantParent := scheme.ParentSemiJoinPostings(n, sAncs, sDescs)
		wantAnc := scheme.AncestorSemiJoinPostings(n, sAncs, sDescs)
		wantChild := scheme.ChildSemiJoinPostings(n, sAncs, sDescs)
		for aKind, aView := range views(ancs) {
			for dKind, dView := range views(descs) {
				tag := "/" + aKind + "-" + dKind
				for _, cfg := range []exec.Config{
					{Mode: exec.Serial},
					{Mode: exec.Forced, Workers: 1},
					{Mode: exec.Forced, Workers: 2},
					{Mode: exec.Forced, Workers: 3},
					{Mode: exec.Forced, Workers: 8},
				} {
					e := exec.New(cfg)
					equalIDs(t, "UpwardSemiJoin"+tag, e.UpwardSemiJoin(n, aView, dView), wantUpSemi)
					equalIDs(t, "ParentSemiJoin"+tag, e.ParentSemiJoin(n, aView, dView), wantParent)
					if got := e.CountUpwardSemiJoin(n, aView, dView); got != len(wantUpSemi) {
						t.Errorf("CountUpwardSemiJoin%s = %d, want %d", tag, got, len(wantUpSemi))
					}
					if got := e.CountParentSemiJoin(n, aView, dView); got != len(wantParent) {
						t.Errorf("CountParentSemiJoin%s = %d, want %d", tag, got, len(wantParent))
					}
					equalIDs(t, "AncestorSemiJoin"+tag, e.AncestorSemiJoin(n, aView, dView), wantAnc)
					equalIDs(t, "ChildSemiJoin"+tag, e.ChildSemiJoin(n, aView, dView), wantChild)
				}
			}
		}
	}
}

// TestIndexPostingsAgree drives the executor with the index's own resident
// block-compressed lists (not rebuilt ones) against the flat oracle.
func TestIndexPostingsAgree(t *testing.T) {
	n, ix := buildFixture(t, 9)
	ancs, descs := ix.RuidIDs("section"), ix.RuidIDs("title")
	sAncs, sDescs := index.SlicePostings(ancs), index.SlicePostings(descs)
	ancsP, descsP := ix.Postings("section"), ix.Postings("title")
	for _, workers := range []int{1, 4} {
		e := exec.New(exec.Config{Mode: exec.Forced, Workers: workers})
		equalIDs(t, "UpwardSemiJoin", e.UpwardSemiJoin(n, ancsP, descsP), scheme.UpwardSemiJoinPostings(n, sAncs, sDescs))
		equalIDs(t, "ParentSemiJoin", e.ParentSemiJoin(n, ancsP, descsP), scheme.ParentSemiJoinPostings(n, sAncs, sDescs))
		equalIDs(t, "AncestorSemiJoin", e.AncestorSemiJoin(n, ancsP, descsP), scheme.AncestorSemiJoinPostings(n, sAncs, sDescs))
		equalIDs(t, "ChildSemiJoin", e.ChildSemiJoin(n, ancsP, descsP), scheme.ChildSemiJoinPostings(n, sAncs, sDescs))
	}
}

// TestParallelNestedJoin runs the semi-joins on a deeply nested list joined
// with itself: sections nested under sections, where shard boundaries land
// mid-subtree, so a shard's descendants have ancestors in an earlier shard.
// Block-backed descendants additionally cut a shard into several runs.
func TestParallelNestedJoin(t *testing.T) {
	n, ix := buildFixture(t, 9)
	secs := ix.RuidIDs("section")
	sSecs := index.SlicePostings(secs)
	wantUp := scheme.UpwardSemiJoinPostings(n, sSecs, sSecs)
	wantAnc := scheme.AncestorSemiJoinPostings(n, sSecs, sSecs)
	if len(wantUp) == 0 || len(wantUp) == len(secs) {
		t.Fatalf("fixture nests %d of %d sections", len(wantUp), len(secs))
	}
	for kind, view := range views(secs) {
		for _, workers := range []int{2, 5, 16} {
			e := exec.New(exec.Config{Mode: exec.Forced, Workers: workers})
			equalIDs(t, "UpwardSemiJoin(section,section)/"+kind,
				e.UpwardSemiJoin(n, view, view), wantUp)
			equalIDs(t, "AncestorSemiJoin(section,section)/"+kind,
				e.AncestorSemiJoin(n, view, view), wantAnc)
		}
	}
}

// TestEmptyAndTinyInputs drives the degenerate shapes through every mode
// and both input views: empty sides, single elements, fewer items than
// workers (and fewer blocks than workers).
func TestEmptyAndTinyInputs(t *testing.T) {
	n, ix := buildFixture(t, 5)
	titles := ix.RuidIDs("title")
	for _, cfg := range []exec.Config{
		{Mode: exec.Serial},
		{Mode: exec.Forced, Workers: 8},
	} {
		e := exec.New(cfg)
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
		one := index.SlicePostings(titles[:1])
		for _, oneView := range views(one.Slice()) {
			equalIDs(t, "single", e.ChildSemiJoin(n, oneView, oneView), scheme.ChildSemiJoinPostings(n, one, one))
		}
		small := index.SlicePostings(titles[:min(3, len(titles))])
		for _, smallView := range views(small.Slice()) {
			equalIDs(t, "tiny", e.UpwardSemiJoin(n, smallView, smallView), scheme.UpwardSemiJoinPostings(n, small, small))
		}
	}
}

// TestDefaultExecutor sanity-checks the process-wide executor.
func TestDefaultExecutor(t *testing.T) {
	e := exec.Default()
	if e == nil || e.Workers() < 1 {
		t.Fatalf("default executor %+v", e)
	}
	n, ix := buildFixture(t, 7)
	equalIDs(t, "default",
		e.UpwardSemiJoin(n, ix.Postings("section"), ix.Postings("title")),
		scheme.UpwardSemiJoinPostings(n, index.SlicePostings(ix.RuidIDs("section")), index.SlicePostings(ix.RuidIDs("title"))))
}

// TestReleaseIDs: a released result goes back for reuse, and a second
// release of it panics, as IDSet.Release does. A result that was never
// released stays the caller's: later operations drawing results do not
// touch it.
func TestReleaseIDs(t *testing.T) {
	n, ix := buildFixture(t, 8)
	ex := exec.New(exec.Config{Mode: exec.Serial})
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
