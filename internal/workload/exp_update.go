package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/prepost"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// E6UpdateScope regenerates the §3.2 robustness comparison: the number of
// pre-existing identifiers that change per insertion, swept over insertion
// depth, for the original UID and for the 2-level ruid. The paper's claim:
// "the scope of identifier update due to a node insertion is reduced by a
// magnitude of two."
func E6UpdateScope() *Table {
	t := &Table{
		ID:    "E6",
		Title: "Relabeled identifiers per insertion, by insertion depth",
		Note:  "§3.2: ruid confines the update to one UID-local area",
		Header: []string{
			"document", "insert depth", "uid relabeled", "uid rebuilds",
			"ruid relabeled", "ruid area rebuilds",
		},
	}
	for _, d := range []string{"balanced-3x6", "xmark-4", "recursive-2x10"} {
		var mk func() *xmltree.Node
		for _, s := range Suite() {
			if s.Name == d {
				mk = s.Make
			}
		}
		maxDepth := xmltree.MaxDepth(mk().DocumentElement())
		for depth := 0; depth < maxDepth; depth += depthStep(maxDepth) {
			uidRel, uidReb := measureInsertions(mk(), depth, 8, func(doc *xmltree.Node) scheme.Updatable {
				return BuildUID(doc)
			})
			ruidRel, ruidReb := measureInsertions(mk(), depth, 8, func(doc *xmltree.Node) scheme.Updatable {
				return BuildRUID(doc)
			})
			t.AddRow(d, depth, fmt.Sprintf("%.1f", uidRel), uidReb,
				fmt.Sprintf("%.1f", ruidRel), ruidReb)
		}
	}
	return t
}

func depthStep(max int) int {
	if max <= 6 {
		return 1
	}
	return max / 6
}

// measureInsertions performs trials first-position insertions at the given
// depth on fresh copies of the document and returns the mean relabel count
// and the total number of rebuilds (full for UID, per-area for ruid).
func measureInsertions(doc *xmltree.Node, depth, trials int, build func(*xmltree.Node) scheme.Updatable) (float64, int) {
	rng := rand.New(rand.NewSource(int64(depth)*31 + 7))
	totalRel, rebuilds := 0, 0
	n := build(doc)
	root := doc.DocumentElement()
	var candidates []*xmltree.Node
	root.Walk(func(x *xmltree.Node) bool {
		if x.Depth()-root.Depth() == depth && x.Kind == xmltree.Element {
			candidates = append(candidates, x)
		}
		return true
	})
	if len(candidates) == 0 {
		return 0, 0
	}
	for i := 0; i < trials; i++ {
		target := candidates[rng.Intn(len(candidates))]
		st, err := n.InsertChild(target, 0, xmltree.NewElement("ins"))
		if err != nil {
			panic(err)
		}
		totalRel += st.Relabeled
		if st.FullRebuild {
			rebuilds++
		}
		rebuilds += st.AreaRebuilds
	}
	return float64(totalRel) / float64(trials), rebuilds
}

// E6Deletion is the deletion counterpart of E6: cascading deletions at
// several depths.
func E6Deletion() *Table {
	t := &Table{
		ID:     "E6b",
		Title:  "Relabeled identifiers per cascading deletion, by depth",
		Note:   "§3.2: node deletion is cascading; ruid confines the shift to one area",
		Header: []string{"document", "delete depth", "uid relabeled", "ruid relabeled"},
	}
	for _, d := range []string{"balanced-3x6", "xmark-4"} {
		var mk func() *xmltree.Node
		for _, s := range Suite() {
			if s.Name == d {
				mk = s.Make
			}
		}
		maxDepth := xmltree.MaxDepth(mk().DocumentElement())
		for depth := 0; depth < maxDepth-1; depth += depthStep(maxDepth) {
			u := measureDeletions(mk(), depth, 8, func(doc *xmltree.Node) scheme.Updatable { return BuildUID(doc) })
			r := measureDeletions(mk(), depth, 8, func(doc *xmltree.Node) scheme.Updatable { return BuildRUID(doc) })
			t.AddRow(d, depth, fmt.Sprintf("%.1f", u), fmt.Sprintf("%.1f", r))
		}
	}
	return t
}

func measureDeletions(doc *xmltree.Node, depth, trials int, build func(*xmltree.Node) scheme.Updatable) float64 {
	rng := rand.New(rand.NewSource(int64(depth)*17 + 3))
	total := 0
	n := build(doc)
	root := doc.DocumentElement()
	done := 0
	for done < trials {
		var candidates []*xmltree.Node
		root.Walk(func(x *xmltree.Node) bool {
			if x.Depth()-root.Depth() == depth && x.Children.Len() > 1 {
				candidates = append(candidates, x)
			}
			return true
		})
		if len(candidates) == 0 {
			break
		}
		target := candidates[rng.Intn(len(candidates))]
		st, err := n.DeleteChild(target, 0)
		if err != nil {
			panic(err)
		}
		total += st.Relabeled
		done++
	}
	if done == 0 {
		return 0
	}
	return float64(total) / float64(done)
}

// E6WorstCase regenerates the fan-out overflow contrast: growing one node's
// fan-out past its budget forces a whole-document renumbering with the
// original UID but only a one-area re-enumeration with ruid.
func E6WorstCase() *Table {
	t := &Table{
		ID:    "E6c",
		Title: "Fan-out overflow: whole-document vs one-area renumbering",
		Note:  "§1 and §3.2: \"the modification of k results in an overhaul of the identifier system\"",
		Header: []string{
			"document", "nodes", "uid relabeled on overflow", "ruid relabeled on overflow",
		},
	}
	for _, d := range []string{"balanced-3x6", "dblp-1k", "shakespeare"} {
		var mk func() *xmltree.Node
		for _, s := range Suite() {
			if s.Name == d {
				mk = s.Make
			}
		}
		// Force an overflow: insert children at the widest node until its
		// fan-out exceeds the initial k.
		overflowAt := func(doc *xmltree.Node) (*xmltree.Node, int) {
			root := doc.DocumentElement()
			widest := root
			root.Walk(func(x *xmltree.Node) bool {
				if x.Children.Len() > widest.Children.Len() {
					widest = x
				}
				return true
			})
			return widest, widest.Children.Len()
		}

		docU := mk()
		nU := BuildUID(docU)
		widest, _ := overflowAt(docU)
		stU, err := nU.InsertChild(widest, 0, xmltree.NewElement("over"))
		if err != nil {
			panic(err)
		}

		docR := mk()
		nR, err := core.Build(docR, core.Options{Partition: DefaultPartition})
		if err != nil {
			panic(err)
		}
		widestR, _ := overflowAt(docR)
		// Fill the widest node's area fan-out first so the next insert
		// overflows it; one insertion at the widest node suffices when the
		// node already carries the area's maximal fan-out.
		stR, err := nR.InsertChild(widestR, 0, xmltree.NewElement("over"))
		if err != nil {
			panic(err)
		}
		nodes := xmltree.CountNodes(mk().DocumentElement())
		t.AddRow(d, nodes, stU.Relabeled, stR.Relabeled)
	}
	return t
}

// E6Churn compares cumulative relabeling under sustained insertion at one
// hot spot across three scheme families: the original UID (relabels right
// siblings every time), the 2-level ruid (small, area-confined relabels),
// and the Li–Moon extended preorder with slack (free until gaps exhaust,
// then a whole-document relabel). This extends §3.2 with the interval-
// scheme behaviour the related work (§6) alludes to.
func E6Churn() *Table {
	t := &Table{
		ID:    "E6d",
		Title: "Cumulative relabels over 50 insertions at one hot spot",
		Note:  "extension of §3.2: UID vs ruid vs Li–Moon (slack 4)",
		Header: []string{
			"document", "uid total", "ruid total", "limoon total", "limoon rebuilds",
		},
	}
	for _, d := range []string{"balanced-3x6", "shakespeare"} {
		var mk func() *xmltree.Node
		for _, s := range Suite() {
			if s.Name == d {
				mk = s.Make
			}
		}
		hot := func(doc *xmltree.Node) *xmltree.Node {
			// A fixed interior hot spot: the first element two levels below
			// the root (falling back to the root if the document is flat).
			root := doc.DocumentElement()
			var target *xmltree.Node
			root.Walk(func(x *xmltree.Node) bool {
				if target != nil {
					return false
				}
				if x.Kind == xmltree.Element && x.Depth()-root.Depth() == 2 {
					target = x
					return false
				}
				return true
			})
			if target == nil {
				target = root
			}
			return target
		}
		churn := func(n scheme.Updatable, doc *xmltree.Node) (int, int) {
			target := hot(doc)
			total, rebuilds := 0, 0
			for i := 0; i < 50; i++ {
				st, err := n.InsertChild(target, 0, xmltree.NewElement("hot"))
				if err != nil {
					panic(err)
				}
				total += st.Relabeled
				if st.FullRebuild {
					rebuilds++
				}
			}
			return total, rebuilds
		}
		docU := mk()
		uTotal, _ := churn(BuildUID(docU), docU)
		docR := mk()
		rTotal, _ := churn(BuildRUID(docR), docR)
		docL := mk()
		lm, err := prepost.BuildLiMoon(docL, 4)
		if err != nil {
			panic(err)
		}
		lTotal, lRebuilds := churn(lm, docL)
		t.AddRow(d, uTotal, rTotal, lTotal, lRebuilds)
	}
	return t
}
