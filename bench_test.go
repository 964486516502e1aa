// Benchmarks regenerating the experiments of EXPERIMENTS.md (E1–E14) as
// testing.B measurements. cmd/ruidbench prints the corresponding tables;
// these benches measure the hot loops with -benchmem. The gated hot-path
// rows (joins, axes, epoch publish, observation, parallel, scheme bake-off)
// live in one place, `ruidbench -json`.
package main

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/prepost"
	"repro/internal/scheme"
	"repro/internal/storage"
	"repro/internal/twig"
	"repro/internal/uid"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

var (
	benchSink   int
	benchSinkID core.ID
	benchBig    *big.Int
)

// BenchmarkE1UIDInsertRenumber measures the Fig. 1 phenomenon: one
// insertion near the root of a UID-numbered document renumbers the right
// siblings' subtrees.
func BenchmarkE1UIDInsertRenumber(b *testing.B) {
	for _, shape := range []struct {
		name string
		mk   func() *xmltree.Node
	}{
		{"figure1", func() *xmltree.Node { d, _ := xmltree.PaperFigure1(); return d }},
		{"balanced-3x6", func() *xmltree.Node { return xmltree.Balanced(3, 6) }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			doc := shape.mk()
			n, err := uid.Build(doc, uid.Options{K: int64(xmltree.MaxFanout(doc.DocumentElement())) + 1})
			if err != nil {
				b.Fatal(err)
			}
			root := doc.DocumentElement()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := n.InsertChild(root, 0, xmltree.NewElement("ins"))
				if err != nil {
					b.Fatal(err)
				}
				benchSink += st.Relabeled
				if _, err := n.DeleteChild(root, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2RParent measures the Fig. 6 algorithm on the paper's example
// identifiers.
func BenchmarkE2RParent(b *testing.B) {
	doc, nodes, rootNames := xmltree.PaperExampleTree()
	roots := map[*xmltree.Node]bool{}
	for _, name := range rootNames {
		roots[nodes[name]] = true
	}
	n, err := core.Build(doc, core.Options{Roots: roots})
	if err != nil {
		b.Fatal(err)
	}
	ids := []core.ID{
		{Global: 2, Local: 7}, {Global: 10, Local: 9, Root: true}, {Global: 3, Local: 3},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _, err := n.RParent(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		benchSinkID = p
	}
}

// BenchmarkE3IdentifierGrowth measures full numbering construction — the
// cost where UID pays for big-integer identifiers on deep documents.
func BenchmarkE3IdentifierGrowth(b *testing.B) {
	doc := xmltree.Recursive(1, 64) // UID needs > 64-bit identifiers here
	b.Run("uid-big", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := uid.Build(doc, uid.Options{})
			if err != nil {
				b.Fatal(err)
			}
			benchSink += n.Bits()
		}
	})
	b.Run("ruid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := core.Build(doc, core.Options{Partition: workload.DefaultPartition})
			if err != nil {
				b.Fatal(err)
			}
			benchSink += n.AreaCount()
		}
	})
}

// BenchmarkE4ParentComputation measures one parent-identifier computation
// per scheme (Observation 2).
func BenchmarkE4ParentComputation(b *testing.B) {
	doc := xmltree.XMark(4, 2)
	rn := workload.BuildRUID(doc)
	un := workload.BuildUID(doc)
	pn, err := prepost.Build(doc)
	if err != nil {
		b.Fatal(err)
	}
	n64, err := uid.Build64(doc, 0)
	if err != nil {
		b.Fatal(err)
	}
	nodes := doc.DocumentElement().Nodes()
	rng := rand.New(rand.NewSource(5))
	sample := make([]*xmltree.Node, 512)
	for i := range sample {
		sample[i] = nodes[1+rng.Intn(len(nodes)-1)] // skip the root
	}

	b.Run("uid-int64", func(b *testing.B) {
		ids := make([]int64, len(sample))
		for i, x := range sample {
			ids[i] = n64.IDs[x]
		}
		k := n64.K
		b.ResetTimer()
		var acc int64
		for i := 0; i < b.N; i++ {
			acc += uid.Parent64(ids[i%len(ids)], k)
		}
		benchSink += int(acc)
	})
	b.Run("uid-big", func(b *testing.B) {
		ids := make([]*big.Int, len(sample))
		for i, x := range sample {
			ids[i], _ = un.IDValue(x)
		}
		k := big.NewInt(un.K())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchBig = uid.ParentID(ids[i%len(ids)], k)
		}
	})
	b.Run("ruid-rparent", func(b *testing.B) {
		ids := make([]core.ID, len(sample))
		for i, x := range sample {
			ids[i], _ = rn.RUID(x)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, _, err := rn.RParent(ids[i%len(ids)])
			if err != nil {
				b.Fatal(err)
			}
			benchSinkID = p
		}
	})
	b.Run("prepost-stored", func(b *testing.B) {
		ids := make([]scheme.ID, len(sample))
		for i, x := range sample {
			ids[i], _ = pn.IDOf(x)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p, ok := pn.Parent(ids[i%len(ids)]); ok {
				benchSink += len(p.Key())
			}
		}
	})
}

// BenchmarkE5QueryEvaluation measures XPath evaluation per navigator
// (Observation 3).
func BenchmarkE5QueryEvaluation(b *testing.B) {
	doc := xmltree.DBLP(1000, 2)
	engines := []struct {
		name string
		e    *xpath.Engine
	}{
		{"pointer", xpath.NewEngine(doc, xpath.PointerNavigator{})},
		{"ruid", xpath.NewEngine(doc, xpath.SchemeNavigator{S: workload.BuildRUID(doc)})},
		{"uid", xpath.NewEngine(doc, xpath.SchemeNavigator{S: workload.BuildUID(doc)})},
	}
	path := xpath.MustParse("/dblp/article[year > 1995]/title")
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += len(eng.e.Select(nil, path))
			}
		})
	}
}

// BenchmarkE6UpdateScope measures one front insertion plus its undo (a
// deletion at the same position) per scheme (§3.2): the pair keeps the
// document stable across iterations so the numbering is built once, and
// each half performs the full relabeling work the schemes differ on.
func BenchmarkE6UpdateScope(b *testing.B) {
	b.Run("uid", func(b *testing.B) {
		doc := xmltree.Balanced(3, 6)
		n, err := uid.Build(doc, uid.Options{K: 4})
		if err != nil {
			b.Fatal(err)
		}
		target := doc.DocumentElement().Children.At(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := n.InsertChild(target, 0, xmltree.NewElement("ins"))
			if err != nil {
				b.Fatal(err)
			}
			benchSink += st.Relabeled
			if _, err := n.DeleteChild(target, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ruid", func(b *testing.B) {
		doc := xmltree.Balanced(3, 6)
		n, err := core.Build(doc, core.Options{Partition: workload.DefaultPartition})
		if err != nil {
			b.Fatal(err)
		}
		target := doc.DocumentElement().Children.At(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := n.InsertChild(target, 0, xmltree.NewElement("ins"))
			if err != nil {
				b.Fatal(err)
			}
			benchSink += st.Relabeled
			if _, err := n.DeleteChild(target, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7FrameAdjust measures partition selection with and without the
// §2.3 supplementation pass.
func BenchmarkE7FrameAdjust(b *testing.B) {
	doc := xmltree.XMark(4, 2)
	for _, adjust := range []bool{false, true} {
		name := "naive"
		if adjust {
			name = "adjusted"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				roots := core.SelectAreaRoots(doc.DocumentElement(), core.PartitionConfig{
					MaxAreaNodes: 16, AdjustFanout: adjust,
				}, false)
				benchSink += len(roots)
			}
		})
	}
}

// BenchmarkE8Multilevel measures multilevel construction and the
// Decompose/Compose round trip of Definition 4.
func BenchmarkE8Multilevel(b *testing.B) {
	doc := xmltree.Random(xmltree.RandomConfig{Nodes: 20000, MaxFanout: 8, Seed: 3})
	opts := core.MLOptions{
		Base:           core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 16}},
		FramePartition: core.PartitionConfig{MaxAreaNodes: 16},
		MaxTopAreas:    16,
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ml, err := core.BuildMultilevel(doc, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += ml.NumLevels()
		}
	})
	b.Run("roundtrip", func(b *testing.B) {
		ml, err := core.BuildMultilevel(doc, opts)
		if err != nil {
			b.Fatal(err)
		}
		nodes := doc.DocumentElement().Nodes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flat, _ := ml.Base().RUID(nodes[i%len(nodes)])
			back, err := ml.Compose(ml.Decompose(flat))
			if err != nil {
				b.Fatal(err)
			}
			benchSinkID = back
		}
	})
}

// BenchmarkE9Axes measures axis generation per scheme on a mid-size
// document (§3.4–3.5).
func BenchmarkE9Axes(b *testing.B) {
	doc := xmltree.XMark(2, 2)
	navs := []struct {
		name string
		nav  xpath.Navigator
	}{
		{"pointer", xpath.PointerNavigator{}},
		{"ruid", xpath.SchemeNavigator{S: workload.BuildRUID(doc)}},
		{"uid", xpath.SchemeNavigator{S: workload.BuildUID(doc)}},
	}
	nodes := doc.DocumentElement().Nodes()
	rng := rand.New(rand.NewSource(9))
	sample := make([]*xmltree.Node, 128)
	for i := range sample {
		sample[i] = nodes[rng.Intn(len(nodes))]
	}
	count := func(*xmltree.Node) bool { benchSink++; return true }
	axes := []struct {
		name string
		walk func(xpath.Navigator, *xmltree.Node, xpath.Visit) bool
	}{
		{"children", xpath.Navigator.Children},
		{"descendants", xpath.Navigator.Descendants},
		{"following", xpath.Navigator.Following},
	}
	for _, nv := range navs {
		for _, ax := range axes {
			b.Run(nv.name+"/"+ax.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ax.walk(nv.nav, sample[i%len(sample)], count)
				}
			})
		}
	}
}

// BenchmarkE10TableSelection measures a point lookup through the §4 table
// decomposition against a monolithic name scan.
func BenchmarkE10TableSelection(b *testing.B) {
	doc := xmltree.DBLP(1000, 2)
	n := workload.BuildRUID(doc)
	root := doc.DocumentElement()

	mono := storage.NewNodeStore(8)
	if err := mono.Load(root, n, false); err != nil {
		b.Fatal(err)
	}
	part := storage.NewPartitionedStore(8)
	if err := part.Load(root, n); err != nil {
		b.Fatal(err)
	}
	var titles []*xmltree.Node
	root.Walk(func(x *xmltree.Node) bool {
		if x.Kind == xmltree.Element && x.Name == "title" {
			titles = append(titles, x)
		}
		return true
	})

	b.Run("partitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := titles[i%len(titles)]
			id, _ := n.RUID(x)
			_, ok, _, err := part.Lookup("title", id)
			if err != nil || !ok {
				b.Fatalf("lookup: ok=%v err=%v", ok, err)
			}
			benchSink++
		}
	})
	b.Run("monolithic-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := titles[i%len(titles)]
			id, _ := n.RUID(x)
			key := string(id.Key())
			found := false
			if err := mono.ScanRange(nil, nil, func(k []byte, _ storage.Record) bool {
				if string(k) == key {
					found = true
					return false
				}
				return true
			}); err != nil {
				b.Fatal(err)
			}
			if !found {
				b.Fatal("row not found")
			}
		}
	})
}

// BenchmarkE11StructuralJoin measures the ancestor-descendant join
// strategies over the name index (extension E11).
func BenchmarkE11StructuralJoin(b *testing.B) {
	doc := xmltree.Recursive(2, 9)
	rn := workload.BuildRUID(doc)
	pn, err := prepost.Build(doc)
	if err != nil {
		b.Fatal(err)
	}
	ixR := index.Build(doc.DocumentElement(), rn)
	listsP := scheme.IDsByName(doc.DocumentElement(), pn)
	ancsR, descsR := ixR.IDs("section"), ixR.IDs("title")
	ancsP, descsP := listsP["section"], listsP["title"]

	b.Run("ruid-upward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += len(index.UpwardJoin(rn, ancsR, descsR))
		}
	})
	b.Run("ruid-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += len(index.MergeJoin(rn, ancsR, descsR))
		}
	})
	b.Run("prepost-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += len(index.MergeJoin(pn, ancsP, descsP))
		}
	})
	b.Run("path-pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += len(ixR.PathQuery("section", "section", "title"))
		}
	})
}

// BenchmarkE12StorageAxes measures identifier-directed storage access:
// a children range scan plus row fetches, and a computed-parent point
// probe, against the clustered index (extension E12).
func BenchmarkE12StorageAxes(b *testing.B) {
	doc := xmltree.XMark(4, 2)
	rn := workload.BuildRUID(doc)
	st := storage.NewNodeStore(64)
	root := doc.DocumentElement()
	if err := st.Load(root, rn, false); err != nil {
		b.Fatal(err)
	}
	var sample []*xmltree.Node
	root.Walk(func(x *xmltree.Node) bool {
		if x.Children.Len() > 0 && len(sample) < 64 {
			sample = append(sample, x)
		}
		return true
	})
	b.Run("children-fetch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := sample[i%len(sample)]
			id, _ := rn.RUID(x)
			for _, c := range rn.Children(id) {
				if _, _, err := st.Get(c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("parent-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := sample[i%len(sample)]
			id, _ := rn.RUID(x)
			p, ok, err := rn.RParent(id)
			if err != nil || !ok {
				continue
			}
			if _, _, err := st.Get(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13RUIDBuild measures full ruid construction at several area
// budgets (the E13 ablation's build-cost dimension).
func BenchmarkE13RUIDBuild(b *testing.B) {
	doc := xmltree.XMark(4, 2)
	for _, budget := range []int{8, 64, 512} {
		b.Run(workloadLabel(budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{
					MaxAreaNodes: budget, AdjustFanout: true,
				}})
				if err != nil {
					b.Fatal(err)
				}
				benchSink += n.AreaCount()
			}
		})
	}
}

func workloadLabel(budget int) string {
	switch budget {
	case 8:
		return "budget-8"
	case 64:
		return "budget-64"
	default:
		return "budget-512"
	}
}

// BenchmarkE14Twig measures branching twig matching vs navigation.
func BenchmarkE14Twig(b *testing.B) {
	doc := xmltree.XMark(4, 2)
	rn := workload.BuildRUID(doc)
	ix := index.Build(doc.DocumentElement(), rn)
	pattern, err := twig.Compile("//item[name]//text")
	if err != nil {
		b.Fatal(err)
	}
	engine := xpath.NewEngine(doc, xpath.SchemeNavigator{S: rn})
	path := xpath.MustParse("//item[name]//text")
	b.Run("twig-match", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ids, _ := twig.MatchIDs(pattern, ix)
			benchSink += len(ids)
		}
	})
	b.Run("navigation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += len(engine.Select(nil, path))
		}
	})
}
