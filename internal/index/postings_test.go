package index_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/scheme"
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
// persisted parts (DataBytes/Skips/Len) revalidate through the load path
// (fromParts).
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
			if err := fromParts(pl.DataBytes(), pl.Skips(), pl.Len()); err != nil {
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

// fromParts runs persisted parts through the validation a bundle load
// gives them, PostingListFromParts: the skip table's structure, and each
// block's contents against its skip entry.
func fromParts(data []byte, skips []index.Skip, n int) error {
	_, err := index.PostingListFromParts(skips, n, data)
	return err
}

// TestPostingListFromPartsRejectsCorruption feeds structurally broken parts
// to the load-path validation (fromParts); each must come back as an error,
// never a panic or a silently accepted list.
func TestPostingListFromPartsRejectsCorruption(t *testing.T) {
	ids := make([]core.ID, 0, 300)
	for i := 0; i < 300; i++ {
		ids = append(ids, core.ID{Global: int64(2 + i/7), Local: int64(1 + i%7)})
	}
	pl := index.BuildPostingList(ids)
	data := pl.DataBytes()
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
		if err := fromParts(d, sk, n); err == nil {
			t.Errorf("%s: corrupt parts accepted", name)
		}
	}
	// The unmodified parts must still pass.
	if err := fromParts(cloneData(), cloneSkips(), pl.Len()); err != nil {
		t.Fatalf("pristine parts rejected: %v", err)
	}
}

// TestSeekKernelsAgree compares every serial Postings-form join against an
// oracle, in all four combinations of slice and block input views: the
// executor's semi-joins against their flat-slice form, which is held to the
// boxed join (upward) or to a plain RParent climb (parent, ancestor, child),
// and the pair joins against the boxed joins of internal/scheme
// (Scheme.Parent and CompareOrder, no kernel in common). Random subsets of a
// random document come first; then a few open_auctions of XMark against every
// increase, where the skip test cuts the block view of the descendant side
// into several runs, each seeded by the merge kernel on its own; last, the
// sibling runs of siblingRuns.
func TestSeekKernelsAgree(t *testing.T) {
	views := func(ids []core.ID) map[string]index.Postings {
		return map[string]index.Postings{
			"slice": index.SlicePostings(ids),
			"block": index.BlockPostings(index.BuildPostingList(ids)),
		}
	}
	boxed := func(ids []core.ID) []scheme.ID {
		out := make([]scheme.ID, len(ids))
		for i, id := range ids {
			out[i] = id
		}
		return out
	}
	unboxed := func(ids []scheme.ID) []core.ID {
		out := make([]core.ID, len(ids))
		for i, id := range ids {
			out[i] = id.(core.ID)
		}
		return out
	}
	samePairs := func(what string, got []scheme.PairID, want []scheme.Pair) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
		}
		for i, p := range want {
			if got[i] != (scheme.PairID{Ancestor: p.Ancestor.(core.ID), Descendant: p.Descendant.(core.ID)}) {
				t.Fatalf("%s: pair %d: %v want %v", what, i, got[i], p)
			}
		}
	}
	check := func(n *core.Numbering, ancs, descs []core.ID) {
		t.Helper()
		rs := scheme.RUID{Num: n}
		wantUp := scheme.UpwardJoin(rs, boxed(ancs), boxed(descs))
		wantMerge := scheme.MergeJoin(rs, boxed(ancs), boxed(descs))
		sAncs, sDescs := index.SlicePostings(ancs), index.SlicePostings(descs)
		ex := exec.Default()
		wantUpSemi := ex.UpwardSemiJoin(n, sAncs, sDescs)
		sameIDs(t, "UpwardSemiJoin/boxed", wantUpSemi, unboxed(scheme.UpwardSemiJoin(rs, boxed(ancs), boxed(descs))))
		wantParent := ex.ParentSemiJoin(n, sAncs, sDescs)
		wantAnc := ex.AncestorSemiJoin(n, sAncs, sDescs)
		wantChild := ex.ChildSemiJoin(n, sAncs, sDescs)
		climbParent, climbAnc, climbChild := climbSemiJoins(t, n, ancs, descs)
		sameIDs(t, "ParentSemiJoin/climb", wantParent, climbParent)
		sameIDs(t, "AncestorSemiJoin/climb", wantAnc, climbAnc)
		sameIDs(t, "ChildSemiJoin/climb", wantChild, climbChild)
		for ak, av := range views(ancs) {
			for dk, dv := range views(descs) {
				tag := ak + "-" + dk
				samePairs("UpwardJoin/"+tag, scheme.UpwardJoinPostings(n, av, dv), wantUp)
				samePairs("MergeJoin/"+tag, scheme.MergeJoinPostings(n, av, dv), wantMerge)
				sameIDs(t, "UpwardSemiJoin/"+tag, ex.UpwardSemiJoin(n, av, dv), wantUpSemi)
				sameIDs(t, "ParentSemiJoin/"+tag, ex.ParentSemiJoin(n, av, dv), wantParent)
				sameIDs(t, "AncestorSemiJoin/"+tag, ex.AncestorSemiJoin(n, av, dv), wantAnc)
				sameIDs(t, "ChildSemiJoin/"+tag, ex.ChildSemiJoin(n, av, dv), wantChild)
			}
		}
	}

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
	for trial := 0; trial < 12; trial++ {
		check(n, pick(), pick())
	}

	n, _, flat = buildRUID(t, xmltree.XMark(100, 1))
	var auctions []core.ID
	for i := 0; i < len(flat["open_auction"]); i += 150 {
		auctions = append(auctions, flat["open_auction"][i])
	}
	increases := views(flat["increase"])["block"]
	pr := index.MakeProbe(index.SlicePostings(auctions))
	var bs index.BlockScratch
	runs := 0
	index.ForEachRun(n, pr, increases, 0, increases.List().NumBlocks(), &bs, func([]core.ID) { runs++ })
	pr.Release()
	if runs < 2 || bs.Stats.Skipped == 0 {
		t.Fatalf("skip test cut increase into %d runs, skipping %d blocks: want several runs", runs, bs.Stats.Skipped)
	}
	check(n, auctions, flat["increase"])

	// The repeated-parent rule of the kernels: sibling runs longer than a
	// block under a member, under a non-member with a member above it and
	// under no member at all, members nested in members, and a t list that
	// starts at the document root.
	n, _, flat = buildRUID(t, siblingRuns())
	for _, anc := range []string{"s", "g", "t"} {
		check(n, flat[anc], flat["t"])
	}
}

// climbSemiJoins answers the parent, ancestor and child semi-joins of ancs
// and descs by climbing every descendant with Numbering.RParent, one step at
// a time and nothing remembered: the oracle the run kernels' repeated-parent
// rule is held to.
func climbSemiJoins(t *testing.T, n *core.Numbering, ancs, descs []core.ID) (parent, anc, child []core.ID) {
	t.Helper()
	member := make(map[core.ID]bool, len(ancs))
	for _, a := range ancs {
		member[a] = true
	}
	aboveHit, parentHit := make(map[core.ID]bool), make(map[core.ID]bool)
	for _, d := range descs {
		for cur, first := d, true; ; first = false {
			p, ok, err := n.RParent(cur)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if member[p] {
				aboveHit[p] = true
				if first {
					parentHit[p] = true
					parent = append(parent, d)
				}
			}
			cur = p
		}
	}
	for _, a := range ancs {
		if aboveHit[a] {
			anc = append(anc, a)
		}
		if parentHit[a] {
			child = append(child, a)
		}
	}
	return parent, anc, child
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
					chain = chain[:0]
					for cur := d; ; {
						p, ok, err := n.RParent(cur)
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
						chain, cur = append(chain, p), p
					}
					for _, a := range chain {
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
