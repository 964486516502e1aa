package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/xmltree"
)

// The maintained frame (partition.go) against the pass it replaced: the
// round-based §2.3 adjustment that re-derived the whole frame from the tree
// on every round, kept here as the oracle for the set S.

// adjustFanoutReference is the round-based pass, verbatim but for the round
// count it returns.
func adjustFanoutReference(root *xmltree.Node, roots map[*xmltree.Node]bool, withAttrs bool) (rounds int) {
	limit := 0
	root.Walk(func(d *xmltree.Node) bool {
		if f := d.StructuralFanout(withAttrs); f > limit {
			limit = f
		}
		return true
	})
	if limit < 1 {
		limit = 1
	}
	for {
		rounds++
		frameKids, order := frameChildrenReference(root, roots)
		promoted := false
		for _, frameNode := range order {
			kids := frameKids[frameNode]
			if len(kids) <= limit {
				continue
			}
			// Group the frame children by the tree child of frameNode on
			// their paths and promote the child of the largest group ≥ 2.
			// kids is in document order, so each group is one contiguous
			// run, and on a tie the first run wins: the choice has to be a
			// function of the tree, or Build is not a function of its input.
			// (A child that is already an area root is its own run of one.)
			var best, cur *xmltree.Node
			bestN, curN := 1, 0
			for _, s := range kids {
				c := s
				for c.Parent != frameNode {
					c = c.Parent
				}
				if c != cur {
					cur, curN = c, 0
				}
				if curN++; curN > bestN {
					best, bestN = c, curN
				}
			}
			if best != nil {
				roots[best] = true
				promoted = true
			}
		}
		if !promoted {
			return rounds
		}
	}
}

// frameChildrenReference maps each area root to its frame children (the area
// roots whose nearest proper S-ancestor it is), in document order, and lists
// the area roots that have any in the order the walk first meets one.
func frameChildrenReference(root *xmltree.Node, roots map[*xmltree.Node]bool) (kids map[*xmltree.Node][]*xmltree.Node, order []*xmltree.Node) {
	kids = make(map[*xmltree.Node][]*xmltree.Node, len(roots))
	var walk func(n, nearest *xmltree.Node)
	walk = func(n, nearest *xmltree.Node) {
		if n != root && roots[n] {
			if kids[nearest] == nil {
				order = append(order, nearest)
			}
			kids[nearest] = append(kids[nearest], n)
			nearest = n
		}
		for ci := 0; ci < n.Children.Len(); ci++ {
			c := n.Children.At(ci)
			walk(c, nearest)
		}
	}
	walk(root, root)
	return kids, order
}

// selectReference is SelectAreaRoots with the adjustment done by the
// reference pass.
func selectReference(root *xmltree.Node, cfg PartitionConfig, withAttrs bool) (roots map[*xmltree.Node]bool, rounds int) {
	adjust := cfg.AdjustFanout
	cfg.AdjustFanout = false
	roots = SelectAreaRoots(root, cfg, withAttrs)
	if adjust {
		rounds = adjustFanoutReference(root, roots, withAttrs)
	}
	return roots, rounds
}

// buildReference is Build with the old healing loop: the frame re-derived
// for every enumeration attempt and, after an overflow promotion, the
// reference pass run over all of it. It reports how many overflow
// promotions it made.
func buildReference(t *testing.T, doc *xmltree.Node, opts Options) (n *Numbering, promotions int) {
	t.Helper()
	fresh, err := Build(xmltree.Linear(0), opts) // the derived limits, not the tree
	if err != nil {
		t.Fatal(err)
	}
	n = &Numbering{doc: doc, root: doc.DocumentElement(), opts: opts, localLimit: fresh.localLimit}
	roots, _ := selectReference(n.root, opts.Partition, opts.WithAttrs)
	for {
		f, _ := deriveFrame(n.root, roots, opts.WithAttrs)
		err := n.renumberAll(f)
		if err == nil {
			break
		}
		var ov *overflowError
		if !errors.As(err, &ov) || ov.node == nil || roots[ov.node] {
			t.Fatalf("reference build: %v", err)
		}
		roots[ov.node] = true
		promotions++
		if opts.Partition.AdjustFanout {
			adjustFanoutReference(n.root, roots, opts.WithAttrs)
		}
	}
	n.commitStamps()
	return n, promotions
}

// comb is a caterpillar: a spine of binary nodes, each carrying one leg — a
// chain with a few attributes along it. An area grown breadth-first from the
// top crosses many legs at once, so its frame children all hang under the
// next spine node and §2.3 promotes the spine one node at a time: one round
// of the reference pass per spine node.
func comb(spine, leg int) *xmltree.Node {
	doc := xmltree.NewDocument()
	cur := xmltree.NewElement("s")
	doc.AppendChild(cur)
	for i := 0; i < spine; i++ {
		l := xmltree.NewElement("leg")
		cur.AppendChild(l)
		for j := 0; j < leg; j++ {
			c := xmltree.NewElement("l")
			if j%3 == 0 {
				c.SetAttr("j", fmt.Sprint(j))
			}
			l.AppendChild(c)
			l = c
		}
		next := xmltree.NewElement("s")
		cur.AppendChild(next)
		cur = next
	}
	return doc
}

type partitionShape struct {
	name   string
	seeded bool
	make   func(seed int64) *xmltree.Node
}

// partitionShapes is every xmltree generator shape, plus the comb.
var partitionShapes = []partitionShape{
	{"balanced", false, func(int64) *xmltree.Node { return xmltree.Balanced(3, 6) }},
	{"linear", false, func(int64) *xmltree.Node { return xmltree.Linear(300) }},
	{"skewed", false, func(int64) *xmltree.Node { return xmltree.Skewed(200, 3, 40) }},
	{"random", true, func(s int64) *xmltree.Node {
		return xmltree.Random(xmltree.RandomConfig{Nodes: 1500, MaxFanout: 9, DepthBias: 0.3, Seed: s, TextLeaf: true})
	}},
	{"random-deep", true, func(s int64) *xmltree.Node {
		return xmltree.Random(xmltree.RandomConfig{Nodes: 1000, MaxFanout: 3, DepthBias: 0.8, Seed: s})
	}},
	{"recursive", false, func(int64) *xmltree.Node { return xmltree.Recursive(3, 5) }},
	{"dblp", true, func(s int64) *xmltree.Node { return xmltree.DBLP(150, s) }},
	{"xmark", true, func(s int64) *xmltree.Node { return xmltree.XMark(4, s) }},
	{"shakespeare", false, func(int64) *xmltree.Node { return xmltree.Shakespeare(3, 4, 30) }},
	{"figure1", false, func(int64) *xmltree.Node { d, _ := xmltree.PaperFigure1(); return d }},
	{"example", false, func(int64) *xmltree.Node { d, _, _ := xmltree.PaperExampleTree(); return d }},
	{"comb", false, func(int64) *xmltree.Node { return comb(60, 70) }},
}

// numberingImage is what a Build decided: κ, the K rows and every node's
// stamp in document order.
type numberingImage struct {
	kappa  int64
	rows   []KRow
	stamps []xmltree.NodeNum
}

func imageOf(n *Numbering) numberingImage {
	im := numberingImage{kappa: n.Kappa(), rows: n.K()}
	n.doc.WalkFull(func(x *xmltree.Node) bool {
		im.stamps = append(im.stamps, x.Num)
		return true
	})
	return im
}

func (im numberingImage) equal(o numberingImage) bool {
	return im.kappa == o.kappa && slices.Equal(im.rows, o.rows) && slices.Equal(im.stamps, o.stamps)
}

func sameRoots(a, b map[*xmltree.Node]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for x := range a {
		if !b[x] {
			return false
		}
	}
	return true
}

// TestPartitionMatchesReference holds the maintained frame to the round-based
// pass: the same S, and from Build the same κ, K rows and stamps — also when
// local-index overflows promote nodes in the middle of the enumeration, and
// also when the tree is built a second time.
func TestPartitionMatchesReference(t *testing.T) {
	type variant struct {
		budget, depth, bits int
	}
	var variants []variant
	for _, budget := range []int{8, 64, 512} {
		for _, depth := range []int{0, 3} {
			variants = append(variants, variant{budget, depth, 0})
		}
	}
	// A 2^9 local limit under a 64-node budget cannot hold a deep area:
	// enumeration overflows and heals by promotion.
	variants = append(variants, variant{64, 0, 9})

	healed, built, frameOverflows := 0, 0, 0
	for _, shape := range partitionShapes {
		for _, seed := range []int64{1, 7, 11} {
			if seed != 1 && !shape.seeded {
				continue
			}
			doc := shape.make(seed)
			for _, v := range variants {
				for _, attrs := range []bool{false, true} {
					name := fmt.Sprintf("%s/seed=%d/budget=%d/depth=%d/bits=%d/attrs=%v", shape.name, seed, v.budget, v.depth, v.bits, attrs)
					cfg := PartitionConfig{MaxAreaNodes: v.budget, MaxAreaDepth: v.depth, MaxLocalBits: v.bits, AdjustFanout: true}
					opts := Options{Partition: cfg, WithAttrs: attrs}

					want, _ := selectReference(doc.DocumentElement(), cfg, attrs)
					if got := SelectAreaRoots(doc.DocumentElement(), cfg, attrs); !sameRoots(got, want) {
						t.Fatalf("%s: S has %d roots, reference %d (or other members)", name, len(got), len(want))
					}

					n, err := Build(doc, opts)
					if errors.Is(err, ErrOverflow) && !errors.As(err, new(*overflowError)) {
						// The frame of a deep tree under a small budget does
						// not fit int64 global indices, whoever selects S.
						frameOverflows++
						continue
					}
					if err != nil {
						t.Fatalf("%s: Build: %v", name, err)
					}
					got := imageOf(n)
					ref, promotions := buildReference(t, doc, opts)
					healed += promotions
					built++
					if !got.equal(imageOf(ref)) {
						t.Fatalf("%s: Build differs from the reference build (κ %d vs %d, %d vs %d areas)",
							name, got.kappa, ref.Kappa(), len(got.rows), ref.AreaCount())
					}
					if !sameRoots(areaRootsOf(n), areaRootsOf(ref)) {
						t.Fatalf("%s: Build kept another S than the reference build", name)
					}
					again, err := Build(doc, opts)
					if err != nil {
						t.Fatalf("%s: second Build: %v", name, err)
					}
					if !got.equal(imageOf(again)) {
						t.Fatalf("%s: a second Build of the same tree differs from the first", name)
					}
				}
			}
		}
	}
	if healed == 0 {
		t.Fatal("no variant forced an overflow promotion: the healing path went untested")
	}
	t.Logf("%d builds compared (%d overflow promotions healed), %d skipped for a frame beyond int64", built, healed, frameOverflows)
}

// TestPartitionWalkBound counts the nodes partitioning and the frame visit:
// a constant number of walks, where the reference pass walks the tree once
// per round.
func TestPartitionWalkBound(t *testing.T) {
	defer func() { visitHook = nil }()
	for _, tc := range []struct {
		name      string
		doc       *xmltree.Node
		budget    int
		minRounds int
	}{
		{"xmark50", xmltree.XMark(50, 1), 64, 2},
		{"comb", comb(60, 70), 256, 10},
	} {
		root := tc.doc.DocumentElement()
		cfg := PartitionConfig{MaxAreaNodes: tc.budget, AdjustFanout: true}
		nodes := xmltree.CountNodes(root)
		_, rounds := selectReference(root, cfg, false)
		if rounds < tc.minRounds {
			t.Fatalf("%s: the reference pass took %d rounds, want a shape that needs ≥ %d", tc.name, rounds, tc.minRounds)
		}
		visits := 0
		visitHook = func() { visits++ }
		SelectAreaRoots(root, cfg, false)
		visitHook = nil
		if visits > 4*nodes {
			t.Fatalf("%s: partitioning visited %d nodes of %d (> 4·n); the reference pass walks %d·n", tc.name, visits, nodes, rounds+1)
		}
		t.Logf("%s: %d nodes, %d visits (%.2f·n); reference: %d rounds", tc.name, nodes, visits, float64(visits)/float64(nodes), rounds)
	}
}
