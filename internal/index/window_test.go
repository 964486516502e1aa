package index_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// windowRows runs the four semi-joins of ancs over descs through the
// executor, and the two counting forms, keyed by kernel.
func windowRows(n *core.Numbering, ancs, descs index.Postings) map[string][]core.ID {
	e := exec.Default()
	return map[string][]core.ID{
		"upward":       e.UpwardSemiJoin(n, ancs, descs),
		"parent":       e.ParentSemiJoin(n, ancs, descs),
		"ancestor":     e.AncestorSemiJoin(n, ancs, descs),
		"child":        e.ChildSemiJoin(n, ancs, descs),
		"count/upward": make([]core.ID, e.CountUpwardSemiJoin(n, ancs, descs)),
		"count/parent": make([]core.ID, e.CountParentSemiJoin(n, ancs, descs)),
	}
}

// sameWindowRows holds every kernel's rows over the block view of descs —
// the only view a window narrows — to its rows over a slice view of the
// same list, with the ancestors given as either view.
func sameWindowRows(t *testing.T, tag string, n *core.Numbering, ancs []core.ID, descs *index.PostingList) {
	t.Helper()
	want := windowRows(n, index.SlicePostings(ancs), index.SlicePostings(descs.AppendAll(nil)))
	for view, av := range map[string]index.Postings{
		"slice": index.SlicePostings(ancs),
		"block": index.BlockPostings(index.BuildPostingList(ancs)),
	} {
		for k, got := range windowRows(n, av, index.BlockPostings(descs)) {
			sameIDs(t, tag+"/"+view+"/"+k, got, want[k])
		}
	}
}

// TestWindowMatchesSliceView checks the scan window of all four kernels on
// a document laid out so that every cut is visible: 980 text postings in
// eight blocks, held by members before, around and after one another.
//
//	<h/> <p> 200 text </p> <listitem>A 50 text </listitem>
//	<listitem>B 10 text <listitem>C 20 text </listitem> 300 text </listitem>
//	<q> 400 text </q> <z/>
//
// Each probe's window must be exactly the blocks holding a descendant of a
// member — the hull the text postings give here — and the rows over it must
// be the rows over the unwindowed slice view. C is the
// last member of {A, B, C} and its subtree ends in block 2, but B's runs on
// to block 4: a window cut at the last member's own subtree, or one block
// short of B's, loses rows.
func TestWindowMatchesSliceView(t *testing.T) {
	texts := func(k int) string { return strings.Repeat("<text/>", k) }
	src := "<site><h/><p>" + texts(200) + "</p><listitem>" + texts(50) + "</listitem><listitem>" + texts(10) +
		"<listitem>" + texts(20) + "</listitem>" + texts(300) + "</listitem><q>" + texts(400) + "</q><z/></site>"
	doc, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	n, ix, flat := buildRUID(t, doc)
	descs := ix.Postings("text").List()
	if descs.NumBlocks() != 8 {
		t.Fatalf("fixture has %d text blocks, want 8", descs.NumBlocks())
	}
	li := flat["listitem"]
	one := func(name string) core.ID { return flat[name][0] }
	for _, c := range []struct {
		name   string
		ancs   []core.ID
		lo, hi int
	}{
		{"first and last postings", []core.ID{one("p"), one("q")}, 0, 8},
		{"mid-block member", []core.ID{li[0]}, 1, 2},
		{"nested members", li, 1, 5},
		{"nested member alone", []core.ID{li[2]}, 2, 3},
		{"outer member alone", []core.ID{li[1]}, 1, 5},
		{"leading subtree ends mid-block", []core.ID{one("p")}, 0, 2},
		{"trailing subtree starts mid-block", []core.ID{one("q")}, 4, 8},
		{"member after every posting", []core.ID{one("z")}, 8, 8},
		{"member before every posting", []core.ID{one("h")}, 0, 0},
		{"no members", nil, 0, 0},
	} {
		pr := index.MakeProbe(index.SlicePostings(c.ancs))
		var bs index.BlockScratch
		lo, hi := pr.Window(n, index.BlockPostings(descs), &bs)
		if lo != c.lo || hi != c.hi {
			t.Errorf("%s: window [%d, %d), want [%d, %d)", c.name, lo, hi, c.lo, c.hi)
		}
		runs := 0
		index.ForEachRun(n, pr, index.BlockPostings(descs), lo, hi, &bs, func([]core.ID) { runs++ })
		pr.Release()
		if cut := int64(8 - (c.hi - c.lo)); bs.Stats.Skipped < cut {
			t.Errorf("%s: %d blocks skipped, want at least the %d the window cuts", c.name, bs.Stats.Skipped, cut)
		}
		if c.lo == c.hi && (runs != 0 || bs.Stats.Admitted != 0 || bs.Stats.Probes != 0 || bs.Stats.Skipped != 8) {
			t.Errorf("%s: empty window scanned %d runs: %+v, want every block skipped", c.name, runs, bs.Stats)
		}
		sameWindowRows(t, c.name, n, c.ancs, descs)
	}
}

// TestWindowOnXMark repeats the comparison on XMark, whose listitems nest
// inside one another's parlists: every listitem, every 7th, and the first
// and last alone, against text and against listitem itself.
func TestWindowOnXMark(t *testing.T) {
	n, ix, flat := buildRUID(t, xmltree.XMark(20, 1))
	li := flat["listitem"]
	var sparse []core.ID
	for i := 3; i < len(li); i += 7 {
		sparse = append(sparse, li[i])
	}
	for _, d := range []string{"text", "listitem"} {
		descs := ix.Postings(d).List()
		if descs.NumBlocks() < 4 {
			t.Fatalf("%s has %d blocks: too few to window", d, descs.NumBlocks())
		}
		for tag, ancs := range map[string][]core.ID{
			"all": li, "sparse": sparse, "first": li[:1], "last": li[len(li)-1:],
		} {
			sameWindowRows(t, d+"/"+tag, n, ancs, descs)
		}
	}
}
