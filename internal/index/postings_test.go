package index_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// buildRUID numbers doc and collects, by an independent document walk, the
// flat walk-order postings per element name — the oracle the block
// representation must reproduce exactly.
func buildRUID(t *testing.T, doc *xmltree.Node) (*core.Numbering, *index.NameIndex, map[string][]core.ID) {
	t.Helper()
	n, err := core.Build(doc, core.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 16, AdjustFanout: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	flat := make(map[string][]core.ID)
	doc.DocumentElement().Walk(func(x *xmltree.Node) bool {
		if x.Kind == xmltree.Element {
			if id, ok := n.RUID(x); ok {
				flat[x.Name] = append(flat[x.Name], id)
			}
		}
		return true
	})
	return n, index.Build(doc.DocumentElement(), n), flat
}

func sameIDs(t *testing.T, what string, got, want []core.ID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d ids, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d: got %v want %v", what, i, got[i], want[i])
		}
	}
}

// TestPostingListRoundTrip checks, for every name of several document
// shapes, that the block-compressed list decodes back to the independent
// walk-order oracle, that no block exceeds BlockSize, and that the
// persisted parts (DataBytes/Skips/Len) revalidate through PostingListFromParts.
func TestPostingListRoundTrip(t *testing.T) {
	docs := map[string]*xmltree.Node{
		"recursive": xmltree.Recursive(3, 6),
		"random":    xmltree.Random(xmltree.RandomConfig{Nodes: 4000, MaxFanout: 6, DepthBias: 0.4, Seed: 11}),
	}
	for shape, doc := range docs {
		_, ix, flat := buildRUID(t, doc)
		for name, want := range flat {
			pl := ix.Postings(name).List()
			if pl == nil {
				t.Fatalf("%s/%s: no block list", shape, name)
			}
			sameIDs(t, shape+"/"+name, pl.AppendAll(nil), want)
			if pl.Len() != len(want) {
				t.Fatalf("%s/%s: Len %d want %d", shape, name, pl.Len(), len(want))
			}
			for b, sk := range pl.Skips() {
				if sk.N == 0 || int(sk.N) > index.BlockSize {
					t.Fatalf("%s/%s: block %d holds %d entries", shape, name, b, sk.N)
				}
			}
			data, err := pl.DataBytes()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := index.PostingListFromParts(data, pl.Skips(), pl.Len()); err != nil {
				t.Fatalf("%s/%s: own parts rejected: %v", shape, name, err)
			}
		}
	}
}

// TestPostingListCompression pins the headline size win: on a large random
// document the resident block representation must be at least 3x smaller
// than the 24-byte-per-posting flat slice it replaces.
func TestPostingListCompression(t *testing.T) {
	doc := xmltree.Random(xmltree.RandomConfig{Nodes: 50000, MaxFanout: 8, DepthBias: 0.3, Seed: 7})
	n, err := core.Build(doc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc.DocumentElement(), n)
	size, count := ix.PostingsSizeBytes(), ix.PostingsCount()
	if count < 40000 {
		t.Fatalf("fixture too small: %d postings", count)
	}
	bpp := float64(size) / float64(count)
	const flat = 24.0
	if bpp*3 > flat {
		t.Fatalf("bytes per posting %.2f, need <= %.2f for a 3x win over the flat %.0f", bpp, flat/3, flat)
	}
	t.Logf("%d postings in %d bytes: %.2f B/posting (flat: %.0f, %.1fx)", count, size, bpp, flat, flat/bpp)
}

// TestPostingListFromPartsRejectsCorruption feeds structurally broken parts
// to the load-path validator; each must come back as an error, never a
// panic or a silently accepted list.
func TestPostingListFromPartsRejectsCorruption(t *testing.T) {
	ids := make([]core.ID, 0, 300)
	for i := 0; i < 300; i++ {
		ids = append(ids, core.ID{Global: int64(2 + i/7), Local: int64(1 + i%7)})
	}
	pl := index.BuildPostingList(ids)
	data, err := pl.DataBytes()
	if err != nil {
		t.Fatal(err)
	}
	skips := pl.Skips()

	cloneSkips := func() []index.Skip { return append([]index.Skip(nil), skips...) }
	cloneData := func() []byte { return append([]byte(nil), data...) }

	cases := map[string]func() ([]byte, []index.Skip, int){
		"wrong total": func() ([]byte, []index.Skip, int) {
			return cloneData(), cloneSkips(), pl.Len() + 1
		},
		"truncated data": func() ([]byte, []index.Skip, int) {
			return cloneData()[:len(data)-1], cloneSkips(), pl.Len()
		},
		"zero block": func() ([]byte, []index.Skip, int) {
			sk := cloneSkips()
			sk[0].N = 0
			return cloneData(), sk, pl.Len()
		},
		"oversized block": func() ([]byte, []index.Skip, int) {
			sk := cloneSkips()
			sk[1].N = index.BlockSize + 1
			return cloneData(), sk, pl.Len()
		},
		"broken tiling": func() ([]byte, []index.Skip, int) {
			sk := cloneSkips()
			sk[1].Off++
			return cloneData(), sk, pl.Len()
		},
		"end past data": func() ([]byte, []index.Skip, int) {
			sk := cloneSkips()
			sk[len(sk)-1].End = uint32(len(data) + 9)
			return cloneData(), sk, pl.Len()
		},
		"wrong last": func() ([]byte, []index.Skip, int) {
			sk := cloneSkips()
			sk[0].Last.Local++
			return cloneData(), sk, pl.Len()
		},
		"wrong min global": func() ([]byte, []index.Skip, int) {
			sk := cloneSkips()
			sk[0].MinGlobal--
			return cloneData(), sk, pl.Len()
		},
		"wrong max global": func() ([]byte, []index.Skip, int) {
			sk := cloneSkips()
			sk[1].MaxGlobal++
			return cloneData(), sk, pl.Len()
		},
		"garbage delta bytes": func() ([]byte, []index.Skip, int) {
			d := cloneData()
			for i := range d {
				d[i] = 0xff
			}
			return d, cloneSkips(), pl.Len()
		},
		"unclaimed tail": func() ([]byte, []index.Skip, int) {
			sk := cloneSkips()
			sk[len(sk)-1].End--
			sk[len(sk)-1].N--
			return cloneData(), sk, pl.Len() - 1
		},
	}
	for name, build := range cases {
		d, sk, n := build()
		if _, err := index.PostingListFromParts(d, sk, n); err == nil {
			t.Errorf("%s: corrupt parts accepted", name)
		}
	}
	// The unmodified parts must still pass.
	if _, err := index.PostingListFromParts(cloneData(), cloneSkips(), pl.Len()); err != nil {
		t.Fatalf("pristine parts rejected: %v", err)
	}
}

// TestSeekKernelsAgree compares every serial Postings-form join against its
// flat-slice oracle over random subsets, in all four combinations of slice
// and block input views. This is the direct seek-kernel check; the exec
// package repeats it through the parallel scheduler.
func TestSeekKernelsAgree(t *testing.T) {
	doc := xmltree.Random(xmltree.RandomConfig{Nodes: 6000, MaxFanout: 5, DepthBias: 0.5, Seed: 3})
	n, _, flat := buildRUID(t, doc)
	names := make([]string, 0, len(flat))
	for name := range flat {
		names = append(names, name)
	}
	r := rand.New(rand.NewSource(42))
	pick := func() []core.ID {
		full := flat[names[r.Intn(len(names))]]
		keep := []float64{1, 0.5, 0.05}[r.Intn(3)]
		out := make([]core.ID, 0, len(full))
		for _, id := range full {
			if r.Float64() < keep {
				out = append(out, id)
			}
		}
		return out
	}
	views := func(ids []core.ID) map[string]index.Postings {
		return map[string]index.Postings{
			"slice": index.SlicePostings(ids),
			"block": index.BlockPostings(index.BuildPostingList(ids)),
		}
	}
	for trial := 0; trial < 12; trial++ {
		ancs, descs := pick(), pick()
		sAncs, sDescs := index.SlicePostings(ancs), index.SlicePostings(descs)
		wantUp := index.UpwardJoinPostings(n, sAncs, sDescs)
		wantMerge := index.MergeJoinPostings(n, sAncs, sDescs)
		wantUpSemi := index.UpwardSemiJoinPostings(n, sAncs, sDescs)
		wantParent := index.ParentSemiJoinPostings(n, sAncs, sDescs)
		wantAnc := index.AncestorSemiJoinPostings(n, sAncs, sDescs)
		wantChild := index.ChildSemiJoinPostings(n, sAncs, sDescs)
		for ak, av := range views(ancs) {
			for dk, dv := range views(descs) {
				tag := ak + "-" + dk
				gotUp := index.UpwardJoinPostings(n, av, dv)
				if len(gotUp) != len(wantUp) {
					t.Fatalf("UpwardJoin/%s: %d pairs, want %d", tag, len(gotUp), len(wantUp))
				}
				for i := range gotUp {
					if gotUp[i] != wantUp[i] {
						t.Fatalf("UpwardJoin/%s: pair %d: %v want %v", tag, i, gotUp[i], wantUp[i])
					}
				}
				gotMerge := index.MergeJoinPostings(n, av, dv)
				if len(gotMerge) != len(wantMerge) {
					t.Fatalf("MergeJoin/%s: %d pairs, want %d", tag, len(gotMerge), len(wantMerge))
				}
				for i := range gotMerge {
					if gotMerge[i] != wantMerge[i] {
						t.Fatalf("MergeJoin/%s: pair %d: %v want %v", tag, i, gotMerge[i], wantMerge[i])
					}
				}
				sameIDs(t, "UpwardSemiJoin/"+tag, index.UpwardSemiJoinPostings(n, av, dv), wantUpSemi)
				sameIDs(t, "ParentSemiJoin/"+tag, index.ParentSemiJoinPostings(n, av, dv), wantParent)
				sameIDs(t, "AncestorSemiJoin/"+tag, index.AncestorSemiJoinPostings(n, av, dv), wantAnc)
				sameIDs(t, "ChildSemiJoin/"+tag, index.ChildSemiJoinPostings(n, av, dv), wantChild)
			}
		}
	}
}

// TestProbeSkipIsSound verifies the block skip test directly: any block the
// probe rules out must contain no descendant with an ancestor (parent
// included) in the probe set, checked by brute force on the decoded block.
// A conservative test may admit useless blocks, but may never reject a
// productive one.
func TestProbeSkipIsSound(t *testing.T) {
	doc := xmltree.Random(xmltree.RandomConfig{Nodes: 8000, MaxFanout: 7, DepthBias: 0.4, Seed: 9})
	n, ix, flat := buildRUID(t, doc)
	var chain []core.ID
	for ancName, ancIDs := range flat {
		// Sparse subset: skipping only triggers when areas are missing.
		sub := make([]core.ID, 0, len(ancIDs)/10+1)
		for i, id := range ancIDs {
			if i%10 == 0 {
				sub = append(sub, id)
			}
		}
		pr := index.MakeProbe(index.SlicePostings(sub))
		for descName := range flat {
			pl := ix.Postings(descName).List()
			var skipped, total int
			sks := pl.Skips()
			for b := 0; b < pl.NumBlocks(); b++ {
				total++
				sk := &sks[b]
				if pr.MayContribute(n, sk) {
					continue
				}
				skipped++
				for _, d := range pl.AppendBlock(b, nil) {
					chain = n.AppendAncestorChainID(chain[:0], d)
					for _, a := range chain[1:] {
						if pr.Set.Has(a) {
							t.Fatalf("probe(%s) skipped block %d of %s containing hit %v under %v",
								ancName, b, descName, a, d)
						}
					}
				}
			}
			_ = total
		}
	}
}
