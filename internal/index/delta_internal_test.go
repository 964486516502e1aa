package index

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// TestSpliceNormalization pins the split/coalesce rule on hand-built block
// layouts the random histories of TestSpliceMatchesRebuild reach only by
// luck. The identifiers are the 400 children of one root, so one numbering
// orders every list and serves as both epochs' (no identifier changes).
func TestSpliceNormalization(t *testing.T) {
	doc := xmltree.NewDocument()
	root := xmltree.NewElement("r")
	doc.AppendChild(root)
	for i := 0; i < 400; i++ {
		root.AppendChild(xmltree.NewElement("x"))
	}
	num, err := core.Build(doc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := Build(root, num).RuidIDs("x")

	// layout encodes ids into blocks of the given sizes.
	layout := func(ids []core.ID, sizes ...int) *PostingList {
		var dir []*block
		for _, n := range sizes {
			blk, _ := encodeBlock(ids[:n], nil)
			dir = append(dir, blk)
			ids = ids[n:]
		}
		if len(ids) != 0 {
			t.Fatalf("layout leaves %d ids over", len(ids))
		}
		return newList(dir)
	}
	without := func(ids []core.ID, drop ...int) []core.ID {
		out := append([]core.ID(nil), ids...)
		for i := len(drop) - 1; i >= 0; i-- {
			out = append(out[:drop[i]], out[drop[i]+1:]...)
		}
		return out
	}

	cases := []struct {
		name      string
		old       *PostingList
		delta     NameDelta
		want      []core.ID
		sizes     []int
		reencoded int
	}{{
		name:  "an emptied block lets its neighbours coalesce",
		old:   layout(all[:240], 68, 128, 44),
		delta: NameDelta{Removed: append([]core.ID(nil), all[68:196]...)},
		want:  without(all[:240], seq(68, 196)...),
		sizes: []int{112}, reencoded: 1,
	}, {
		name:  "an insert into a full block splits it in halves",
		old:   layout(without(all[:200], 70), 128, 71),
		delta: NameDelta{Inserted: []core.ID{all[70]}},
		want:  all[:200],
		sizes: []int{65, 64, 71}, reencoded: 2,
	}, {
		name:  "a removal that lets two halves fit coalesces them",
		old:   layout(all[:200], 65, 64, 71),
		delta: NameDelta{Removed: []core.ID{all[3]}},
		want:  without(all[:200], 3),
		sizes: []int{128, 71}, reencoded: 1,
	}, {
		name:  "a removal that leaves both pairs above one block touches one block",
		old:   layout(all[:300], 100, 100, 100),
		delta: NameDelta{Removed: []core.ID{all[150]}},
		want:  without(all[:300], 150),
		sizes: []int{100, 99, 100}, reencoded: 1,
	}, {
		name:  "a shrunken block coalesces with its left neighbour",
		old:   layout(all[:228], 100, 128),
		delta: NameDelta{Removed: append([]core.ID(nil), all[100:200]...)},
		want:  without(all[:228], seq(100, 200)...),
		sizes: []int{128}, reencoded: 1,
	}, {
		name:  "an insert past the end joins the last block",
		old:   layout(all[:130], 128, 2),
		delta: NameDelta{Inserted: []core.ID{all[131], all[130]}},
		want:  all[:132],
		sizes: []int{128, 4}, reencoded: 1,
	}, {
		name:  "an insert before the start joins the first block",
		old:   layout(all[1:130], 100, 29),
		delta: NameDelta{Inserted: []core.ID{all[0]}},
		want:  all[:130],
		sizes: []int{101, 29}, reencoded: 1,
	}, {
		name:  "a large insert splits into equal parts",
		old:   layout(without(all[:400], seq(10, 310)...), 100),
		delta: NameDelta{Inserted: append([]core.ID(nil), all[10:310]...)},
		want:  all[:400],
		sizes: []int{100, 100, 100, 100}, reencoded: 4,
	}, {
		name:  "the last posting gone, the list is gone",
		old:   layout(all[:2], 2),
		delta: NameDelta{Removed: []core.ID{all[1], all[0]}},
	}, {
		name:  "a list that did not exist",
		delta: NameDelta{Inserted: []core.ID{all[7], all[5]}},
		want:  []core.ID{all[5], all[7]},
		sizes: []int{2}, reencoded: 1,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var st DeltaStats
			got, err := splice(c.old, num, num, &c.delta, &st)
			if err != nil {
				t.Fatal(err)
			}
			if c.want == nil {
				if got != nil {
					t.Fatalf("got %d postings, want no list", got.Len())
				}
				return
			}
			if err := checkPostingList(num, "x", got); err != nil {
				t.Fatal(err)
			}
			var sizes []int
			for _, blk := range got.blocks {
				sizes = append(sizes, int(blk.N))
			}
			if fmt.Sprint(sizes) != fmt.Sprint(c.sizes) {
				t.Errorf("block sizes %v, want %v", sizes, c.sizes)
			}
			ids := got.AppendAll(nil)
			if len(ids) != len(c.want) {
				t.Fatalf("%d postings, want %d", len(ids), len(c.want))
			}
			for i := range ids {
				if ids[i] != c.want[i] {
					t.Fatalf("posting %d is %v, want %v", i, ids[i], c.want[i])
				}
			}
			if st.BlocksReencoded != c.reencoded || st.BlocksShared != len(sizes)-c.reencoded {
				t.Errorf("re-encoded %d and shared %d blocks, want %d and %d",
					st.BlocksReencoded, st.BlocksShared, c.reencoded, len(sizes)-c.reencoded)
			}
		})
	}
}

// seq returns lo, lo+1, ..., hi-1.
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
