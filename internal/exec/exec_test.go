package exec_test

import (
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
		t.Fatalf("%s: parallel %d ids, serial %d", op, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: id %d: parallel %v serial %v", op, i, got[i], want[i])
		}
	}
}

func equalPairs(t *testing.T, op string, got, want []index.PairID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: parallel %d pairs, serial %d", op, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d: parallel %v serial %v", op, i, got[i], want[i])
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
		wantUpward := index.UpwardJoinPostings(n, sAncs, sDescs)
		wantMerge := index.MergeJoinPostings(n, sAncs, sDescs)
		wantUpSemi := index.UpwardSemiJoinPostings(n, sAncs, sDescs)
		wantParent := index.ParentSemiJoinPostings(n, sAncs, sDescs)
		wantAnc := index.AncestorSemiJoinPostings(n, sAncs, sDescs)
		wantChild := index.ChildSemiJoinPostings(n, sAncs, sDescs)
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
					equalPairs(t, "UpwardJoin"+tag, e.UpwardJoin(n, aView, dView), wantUpward)
					equalPairs(t, "MergeJoin"+tag, e.MergeJoin(n, aView, dView), wantMerge)
					equalIDs(t, "UpwardSemiJoin"+tag, e.UpwardSemiJoin(n, aView, dView), wantUpSemi)
					equalIDs(t, "ParentSemiJoin"+tag, e.ParentSemiJoin(n, aView, dView), wantParent)
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
		equalPairs(t, "MergeJoin", e.MergeJoin(n, ancsP, descsP), index.MergeJoinPostings(n, sAncs, sDescs))
		equalPairs(t, "UpwardJoin", e.UpwardJoin(n, ancsP, descsP), index.UpwardJoinPostings(n, sAncs, sDescs))
		equalIDs(t, "UpwardSemiJoin", e.UpwardSemiJoin(n, ancsP, descsP), index.UpwardSemiJoinPostings(n, sAncs, sDescs))
		equalIDs(t, "ChildSemiJoin", e.ChildSemiJoin(n, ancsP, descsP), index.ChildSemiJoinPostings(n, sAncs, sDescs))
	}
}

// TestParallelNestedJoin pins the merge-join shard seeding on a deeply
// nested ancestor list: sections nested under sections, where shard
// boundaries land mid-subtree and the start stack must carry several open
// ancestors across. Block-backed descendants additionally cut a shard into
// several runs, each seeded by the merge kernel on its own.
func TestParallelNestedJoin(t *testing.T) {
	n, ix := buildFixture(t, 9)
	secs := ix.RuidIDs("section")
	sSecs := index.SlicePostings(secs)
	want := index.MergeJoinPostings(n, sSecs, sSecs)
	wantUp := index.UpwardJoinPostings(n, sSecs, sSecs)
	for kind, view := range views(secs) {
		for _, workers := range []int{2, 5, 16} {
			e := exec.New(exec.Config{Mode: exec.Forced, Workers: workers})
			equalPairs(t, "MergeJoin(section,section)/"+kind,
				e.MergeJoin(n, view, view), want)
			equalPairs(t, "UpwardJoin(section,section)/"+kind,
				e.UpwardJoin(n, view, view), wantUp)
		}
	}
}

// TestPathQueryParallel compares the executor's path query against the
// index one across modes.
func TestPathQueryParallel(t *testing.T) {
	_, ix := buildFixture(t, 9)
	want := ix.PathQueryRUID("section", "title")
	if len(want) == 0 {
		t.Fatal("fixture returned no path results")
	}
	for _, cfg := range []exec.Config{
		{Mode: exec.Serial},
		{Mode: exec.Auto, Workers: 4, MinWork: 1},
		{Mode: exec.Forced, Workers: 8},
	} {
		equalIDs(t, "PathQuery/"+cfg.Mode.String(), exec.New(cfg).PathQuery(ix, "section", "title"), want)
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
			if got := e.UpwardJoin(n, index.SlicePostings(nil), view); len(got) != 0 {
				t.Fatalf("%s empty ancs: got %d pairs", kind, len(got))
			}
			if got := e.MergeJoin(n, view, index.SlicePostings(nil)); len(got) != 0 {
				t.Fatalf("%s empty descs: got %d pairs", kind, len(got))
			}
			if got := e.MergeJoin(n, view, index.BlockPostings(nil)); len(got) != 0 {
				t.Fatalf("%s empty block descs: got %d pairs", kind, len(got))
			}
		}
		one := index.SlicePostings(titles[:1])
		for _, oneView := range views(one.Slice()) {
			equalPairs(t, "single", e.MergeJoin(n, oneView, oneView), index.MergeJoinPostings(n, one, one))
		}
		small := index.SlicePostings(titles[:min(3, len(titles))])
		for _, smallView := range views(small.Slice()) {
			equalIDs(t, "tiny", e.UpwardSemiJoin(n, smallView, smallView), index.UpwardSemiJoinPostings(n, small, small))
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
	equalPairs(t, "default",
		e.UpwardJoin(n, ix.Postings("section"), ix.Postings("title")),
		index.UpwardJoinPostings(n, index.SlicePostings(ix.RuidIDs("section")), index.SlicePostings(ix.RuidIDs("title"))))
}
