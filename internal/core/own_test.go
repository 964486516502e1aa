package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/xmltree"
)

// verifyFork holds a fork — whose copies carry no Parent, and whose shared
// nodes point into older trees — to the ground truth through a full clone,
// which carries the same stamps over a tree of its own.
func verifyFork(t *testing.T, f *Numbering) {
	t.Helper()
	if err := f.checkK(); err != nil {
		t.Fatal(err)
	}
	tree, mapping := f.doc.CloneWithMap()
	c, err := f.CloneFor(tree, mapping)
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstGroundTruth(t, c)
}

// sameStamps fails unless the two trees have the same shape and carry the
// same stamp node for node.
func sameStamps(t *testing.T, a, b *xmltree.Node) {
	t.Helper()
	if a.Name != b.Name || a.Children.Len() != b.Children.Len() || len(a.Attrs) != len(b.Attrs) {
		t.Fatalf("shape divergence at %s vs %s", a.Path(), b.Path())
	}
	if a.Num != b.Num {
		t.Fatalf("stamp mismatch at %s: %+v vs %+v", b.Path(), a.Num, b.Num)
	}
	for i := range a.Attrs {
		if a.Attrs[i].Num != b.Attrs[i].Num {
			t.Fatalf("stamp mismatch at %s: %+v vs %+v", b.Attrs[i].Path(), a.Attrs[i].Num, b.Attrs[i].Num)
		}
	}
	for i := 0; i < a.Children.Len(); i++ {
		sameStamps(t, a.Children.At(i), b.Children.At(i))
	}
}

// reach collects every node reachable from top, attributes included.
func reach(top *xmltree.Node) map[*xmltree.Node]bool {
	set := make(map[*xmltree.Node]bool)
	top.WalkFull(func(x *xmltree.Node) bool {
		set[x] = true
		return true
	})
	return set
}

// TestForkBatchMatchesInPlace drives a batch of updates through a fork and
// the same batch through the in-place update of an owning numbering over a
// clone of the same tree: the fork must end up with exactly the tree, the
// stamps and the table K the in-place numbering has, while the numbering it
// was forked from — sealed, and sharing everything the batch did not write —
// still reads as it did before.
func TestForkBatchMatchesInPlace(t *testing.T) {
	for _, attrs := range []bool{false, true} {
		doc := xmltree.Recursive(2, 9) // ~1k elements
		doc.DocumentElement().Walk(func(x *xmltree.Node) bool {
			if x.Kind == xmltree.Element && x.Children.Len()%2 == 1 {
				x.SetAttr("odd", "1")
			}
			return true
		})
		opts := Options{Partition: PartitionConfig{MaxAreaNodes: 8}, WithAttrs: attrs}
		origin, err := Build(doc, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := fingerprint(t, origin)
		cloneTree, mapping := doc.CloneWithMap()
		inPlace, err := origin.CloneFor(cloneTree, mapping)
		if err != nil {
			t.Fatal(err)
		}
		fork := origin.Fork()

		// The batch: inserts at scattered parents, a delete of a deep subtree
		// (drops whole descendant areas), and an insert later deleted again so
		// the count arithmetic has to cancel. Targets are named by section
		// positions from the root element, resolved on each side's own tree.
		at := func(n *Numbering, path ...int) *xmltree.Node {
			x := n.Root()
			for _, i := range path {
				x = x.ChildElements("section")[i]
			}
			return x
		}
		deep := func(p *xmltree.Node) int {
			for i := 0; i < p.Children.Len(); i++ {
				c := p.Children.At(i)
				if c.Name == "section" {
					return i
				}
			}
			t.Fatal("no deep subtree to delete")
			return -1
		}
		relabels := 0
		for _, n := range []*Numbering{fork, inPlace} {
			for _, step := range []func() (*Delta, error){
				func() (*Delta, error) {
					_, d, err := n.InsertChildDelta(at(n, 0, 0), 0, xmltree.NewElement("w1"))
					return d, err
				},
				func() (*Delta, error) {
					_, d, err := n.InsertChildDelta(at(n, 0, 1), 1, xmltree.NewElement("w2"))
					return d, err
				},
				func() (*Delta, error) {
					_, d, err := n.DeleteChildDelta(at(n, 0, 1), deep(at(n, 0, 1)))
					return d, err
				},
				func() (*Delta, error) {
					_, d, err := n.InsertChildDelta(at(n, 0, 0), 0, xmltree.NewElement("ephemeral"))
					return d, err
				},
				func() (*Delta, error) { _, d, err := n.DeleteChildDelta(at(n, 0, 0), 0); return d, err },
			} {
				d, err := step()
				if err != nil {
					t.Fatal(err)
				}
				if d.Full {
					t.Fatal("batch unexpectedly healed an overflow; pick smaller mutations")
				}
				if n == fork {
					relabels += len(d.Relabels)
				}
			}
		}

		if xmltree.Serialize(fork.Doc()) != xmltree.Serialize(inPlace.Doc()) {
			t.Fatal("the fork's tree differs from the in-place one")
		}
		sameStamps(t, fork.Doc(), inPlace.Doc())
		if fmt.Sprint(fork.K()) != fmt.Sprint(inPlace.K()) || fork.Size() != inPlace.Size() {
			t.Fatalf("table K: fork %v (%d nodes), in place %v (%d)", fork.K(), fork.Size(), inPlace.K(), inPlace.Size())
		}
		verifyFork(t, fork)
		verifyAgainstGroundTruth(t, inPlace)

		// The origin was not written, and it refuses to be.
		assertSameFingerprint(t, before, fingerprint(t, origin))
		verifyAgainstGroundTruth(t, origin)
		if _, err := origin.InsertChild(origin.Root(), 0, xmltree.NewElement("x")); !errors.Is(err, ErrImmutable) {
			t.Fatalf("insert on a forked numbering: err = %v, want ErrImmutable", err)
		}

		// What the fork copied is what it wrote: relabeled nodes and their
		// attributes, the update parents, and the spines above them — a small
		// multiple of the relabel count, nowhere near the ~1k nodes of the tree.
		old, fresh := reach(origin.Doc()), 0
		for x := range reach(fork.Doc()) {
			if !old[x] {
				fresh++
			}
		}
		if limit := 4*relabels + 40; fresh == 0 || fresh > limit {
			t.Fatalf("attrs=%v: the fork's tree holds %d nodes the origin's does not, for %d relabels (limit %d)", attrs, fresh, relabels, limit)
		}
	}
}

// TestForkChainSoak publishes a chain of forks — fork, a few random updates,
// seal, fork again — beside an in-place numbering taking the same updates,
// and checks at every link that the two agree and, at the end, that every
// sealed link still reads exactly as it did when it was sealed: nothing a
// later fork did wrote into it.
func TestForkChainSoak(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"budget8", Options{Partition: PartitionConfig{MaxAreaNodes: 8, AdjustFanout: true}}},
		{"budget8/attrs", Options{Partition: PartitionConfig{MaxAreaNodes: 8, AdjustFanout: true}, WithAttrs: true}},
		{"bits6", Options{Partition: PartitionConfig{MaxAreaNodes: 16, MaxLocalBits: 6}}}, // overflows heal mid-chain
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			doc := xmltree.Random(xmltree.RandomConfig{Nodes: 300, MaxFanout: 6, Seed: 3})
			doc.DocumentElement().Walk(func(x *xmltree.Node) bool {
				if x.Kind == xmltree.Element && rng.Intn(3) == 0 {
					x.SetAttr("k", "v")
				}
				return true
			})
			head, err := Build(doc, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			cloneTree, mapping := doc.CloneWithMap()
			inPlace, err := head.CloneFor(cloneTree, mapping)
			if err != nil {
				t.Fatal(err)
			}
			type link struct {
				n    *Numbering
				seen numFingerprint
			}
			var chain []link
			heals := 0
			for round := 0; round < 60; round++ {
				chain = append(chain, link{head, fingerprint(t, head)})
				fork := head.Fork()
				for op := 0; op < 1+rng.Intn(4); op++ {
					// Pick the target by preorder position, the same on both sides.
					els := fork.Root().Elements()
					k := rng.Intn(len(els))
					target, twin := els[k], inPlace.Root().Elements()[k]
					if rng.Intn(3) > 0 || target.Children.Len() == 0 {
						pos := rng.Intn(target.Children.Len() + 1)
						sub := func() *xmltree.Node {
							s := xmltree.NewElement("n")
							s.SetAttr("a", "1")
							s.AppendChild(xmltree.NewElement("m"))
							return s
						}
						_, d, err := fork.InsertChildDelta(target, pos, sub())
						_, _, err2 := inPlace.InsertChildDelta(twin, pos, sub())
						if (err == nil) != (err2 == nil) {
							t.Fatalf("round %d: insert: fork %v, in place %v", round, err, err2)
						}
						if err == nil && d.Full {
							heals++
						}
					} else {
						pos := rng.Intn(target.Children.Len())
						_, _, err := fork.DeleteChildDelta(target, pos)
						_, _, err2 := inPlace.DeleteChildDelta(twin, pos)
						if (err == nil) != (err2 == nil) {
							t.Fatalf("round %d: delete: fork %v, in place %v", round, err, err2)
						}
					}
				}
				if xmltree.Serialize(fork.Doc()) != xmltree.Serialize(inPlace.Doc()) {
					t.Fatalf("round %d: trees diverged", round)
				}
				sameStamps(t, fork.Doc(), inPlace.Doc())
				if fmt.Sprint(fork.K()) != fmt.Sprint(inPlace.K()) {
					t.Fatalf("round %d: table K diverged", round)
				}
				if err := fork.checkK(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				head = fork
			}
			verifyFork(t, head)
			for i, l := range chain {
				if err := l.n.checkK(); err != nil {
					t.Fatalf("link %d: %v", i, err)
				}
				assertSameFingerprint(t, l.seen, fingerprint(t, l.n))
			}
			if tc.opts.Partition.MaxLocalBits > 0 && heals == 0 {
				t.Fatal("no overflow healed on a fork: the own-everything path went untested")
			}
		})
	}
}

// TestForkedWriteByteBudget pins what a served write costs inside core: on
// the 190k-node XMark document, a fork, an insert of a three-node bidder
// under one of the 3000 open_auctions, a second fork and the delete that
// undoes it. The spine of each write runs through open_auctions, whose child
// list and whose children's row are 3000 entries each; re-pointing one entry
// of each costs a chunk and a table (xmltree.Seq), and the pair stays under
// 40 KB — 35 measured, of which the two forks' K directories and the
// directory chunks they copy are 15 and the rows, nodes and deltas of the two
// areas most of the rest; it was 128 KB while both lists were flat arrays
// copied whole. The nodes a write copies are still bounded by its area and its
// spine.
func TestForkedWriteByteBudget(t *testing.T) {
	n, err := Build(xmltree.XMark(500, 1), Options{Partition: PartitionConfig{MaxAreaNodes: 64, AdjustFanout: true}}) // as served
	if err != nil {
		t.Fatal(err)
	}
	auctions := n.Root().FirstChildElement("open_auctions")
	if auctions.Children.Len() != 3000 {
		t.Fatalf("fixture changed: %d open_auctions", auctions.Children.Len())
	}
	rng := rand.New(rand.NewSource(7))
	const pairs = 40
	var ms runtime.MemStats
	var total uint64
	for i := 0; i < pairs; i++ {
		id, _ := n.RUID(auctions.Children.At(rng.Intn(3000)))
		sub, err := xmltree.ParseFragment("<bidder><increase>1</increase></bidder>")
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc

		ins := n.Fork()
		parent, _ := ins.NodeOfID(id)
		if _, _, err := ins.InsertChildDelta(parent, 0, sub); err != nil {
			t.Fatal(err)
		}
		del := ins.Fork()
		parent, _ = del.NodeOfID(id)
		if _, _, err := del.DeleteChildDelta(parent, 0); err != nil {
			t.Fatal(err)
		}

		runtime.ReadMemStats(&ms)
		total += ms.TotalAlloc - start

		for _, f := range []*Numbering{ins, del} {
			area, _ := f.krow(id.Global)
			spine := len(f.AppendAncestors(nil, id)) + 2 // the parent and the document node
			fresh := 0
			for x := range f.copied {
				if x.Kind != xmltree.Attribute { // copied with their elements, and not numbered here
					fresh++
				}
			}
			if fresh == 0 || fresh > area.nodes.Len()+spine {
				t.Fatalf("pair %d: %d fresh nodes; area %d holds %d, the spine %d", i, fresh, id.Global, area.nodes.Len(), spine)
			}
		}
		n = del
		auctions = n.Root().FirstChildElement("open_auctions")
	}
	if per := total / pairs; per > 40<<10 {
		t.Fatalf("an insert+delete pair on forks allocates %d bytes inside core, budget 40960", per)
	} else {
		t.Logf("%d bytes per forked insert+delete pair", per)
	}
}

// TestRowStaysInItsSizeClass: a K row is allocated in the 128-byte size
// class, which the four words of its node sequence fill exactly.
func TestRowStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(area{}); size > 128 {
		t.Fatalf("a K row is %d bytes, past the 128-byte size class", size)
	}
}
