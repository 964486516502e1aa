package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// E7FrameAdjust regenerates the §2.3 fan-out adjustment: with a naive
// partition the frame fan-out κ can exceed the source tree's maximal
// fan-out; supplementing marked area roots (Fig. 7) brings it back within
// the bound.
func E7FrameAdjust() *Table {
	t := &Table{
		ID:    "E7",
		Title: "Frame fan-out κ: naive partition vs §2.3 supplementation",
		Note:  "paper Fig. 7: promoting a shared path node reroutes area roots below it",
		Header: []string{
			"document", "tree max fan-out", "κ naive", "κ adjusted", "areas naive", "areas adjusted",
		},
	}
	for _, d := range Suite() {
		doc := d.Make()
		stats := xmltree.Measure(doc.DocumentElement())
		for _, budget := range []int{8, 64} {
			naive, err := core.Build(d.Make(), core.Options{
				Partition: core.PartitionConfig{MaxAreaNodes: budget},
			})
			if err != nil {
				panic(err)
			}
			adjusted, err := core.Build(d.Make(), core.Options{
				Partition: core.PartitionConfig{MaxAreaNodes: budget, AdjustFanout: true},
			})
			if err != nil {
				panic(err)
			}
			t.AddRow(
				fmt.Sprintf("%s (budget %d)", d.Name, budget),
				stats.MaxFanout, naive.Kappa(), adjusted.Kappa(),
				naive.AreaCount(), adjusted.AreaCount(),
			)
		}
	}
	return t
}

// E8Multilevel regenerates §2.4: the number of levels the multilevel
// construction needs as documents grow, with a deliberately tiny top-level
// budget so the level mechanism engages on laptop-scale documents.
func E8Multilevel() *Table {
	t := &Table{
		ID:    "E8",
		Title: "Multilevel ruid: levels vs document size",
		Note:  "§2.4: \"in practice, this requires only a few levels to encode a large XML tree\"; capacity e^m (§3.1)",
		Header: []string{
			"document", "nodes", "areas (level 1)", "levels", "top-level areas",
		},
	}
	docs := []Doc{
		{"balanced-2x6", func() *xmltree.Node { return xmltree.Balanced(2, 6) }},
		{"balanced-3x6", func() *xmltree.Node { return xmltree.Balanced(3, 6) }},
		{"balanced-3x8", func() *xmltree.Node { return xmltree.Balanced(3, 8) }},
		{"balanced-4x8", func() *xmltree.Node { return xmltree.Balanced(4, 8) }},
		{"random-50k", func() *xmltree.Node {
			return xmltree.Random(xmltree.RandomConfig{Nodes: 50000, MaxFanout: 8, Seed: 2})
		}},
	}
	for _, d := range docs {
		doc := d.Make()
		ml, err := core.BuildMultilevel(doc, core.MLOptions{
			Base:           core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 16}},
			FramePartition: core.PartitionConfig{MaxAreaNodes: 16},
			MaxTopAreas:    16,
		})
		if err != nil {
			panic(err)
		}
		t.AddRow(
			d.Name, xmltree.CountNodes(doc.DocumentElement()),
			ml.Base().AreaCount(), ml.NumLevels(), ml.TopAreaCount(),
		)
	}
	return t
}

// E10TableSelection regenerates the §4 "database file/table selection"
// comparison: point lookups through the (name, global index) decomposition
// against a monolithic table, counting simulated page I/O.
func E10TableSelection() *Table {
	t := &Table{
		ID:    "E10",
		Title: "Cold page reads per name lookup: partitioned vs monolithic",
		Note:  "§4: table names composed from the element name and the ruid global index",
		Header: []string{
			"document", "tables", "monolithic pages", "partitioned reads/lookup", "monolithic reads/lookup (name scan)",
		},
	}
	for _, dn := range []string{"dblp-1k", "xmark-4"} {
		var doc *xmltree.Node
		for _, s := range Suite() {
			if s.Name == dn {
				doc = s.Make()
			}
		}
		n := BuildRUID(doc)
		root := doc.DocumentElement()

		mono := NewNodeStore(8)
		if err := mono.Load(root, scheme.NodeKey(scheme.RUID{Num: n}), false); err != nil {
			panic(err)
		}
		part := NewPartitionedStore(8)
		if err := part.Load(root, n); err != nil {
			panic(err)
		}

		// Lookup workload: fetch each of 32 title elements by name+id.
		var titles []*xmltree.Node
		root.Walk(func(x *xmltree.Node) bool {
			if x.Kind == xmltree.Element && (x.Name == "title" || x.Name == "name") && len(titles) < 32 {
				titles = append(titles, x)
			}
			return true
		})

		part.DropCaches()
		part.ResetStats()
		for _, x := range titles {
			id, _ := n.RUID(x)
			if _, _, _, err := part.Lookup(x.Name, id); err != nil {
				panic(err)
			}
		}
		partReads := float64(part.TotalStats().Reads) / float64(len(titles))

		// Monolithic: a name lookup without a name index is a relation scan
		// that stops at the matching identifier.
		mono.DropCache()
		mono.ResetStats()
		for _, x := range titles {
			id, _ := n.RUID(x)
			key := id.Key()
			found := false
			if err := mono.ScanRange(nil, nil, func(k []byte, r Record) bool {
				if string(k) == string(key) {
					found = true
					return false
				}
				return true
			}); err != nil {
				panic(err)
			}
			if !found {
				panic("monolithic scan missed a row")
			}
		}
		monoReads := float64(mono.Stats().Reads) / float64(len(titles))
		t.AddRow(dn, part.Tables(), mono.Pages(),
			fmt.Sprintf("%.1f", partReads), fmt.Sprintf("%.1f", monoReads))
	}
	return t
}

// Experiment names one runnable table: ID and Title serve listing and
// subset selection, Build computes the table on demand.
type Experiment struct {
	ID    string
	Title string
	Build func() *Table
}

// Experiments returns every experiment in order, construction deferred —
// `ruidbench -list` and subset runs must not pay for the tables they do
// not render (E17 alone builds and pages a ~1M-element corpus).
func Experiments() []Experiment {
	e2 := func(pick int) func() *Table {
		return func() *Table {
			a, b, c := E2PaperExample()
			return [...]*Table{a, b, c}[pick]
		}
	}
	return []Experiment{
		{"E1", "Original UID before/after node insertion", E1Figure1},
		{"E2a", "2-level ruid of the example tree", e2(0)},
		{"E2b", "Global parameter table K", e2(1)},
		{"E2c", "rparent() walkthroughs", e2(2)},
		{"E3", "Identifier magnitude: original UID vs 2-level ruid", E3IdentifierGrowth},
		{"E3b", "Virtual-node waste of the original UID", E3VirtualWaste},
		{"E4", "parent() / rparent() latency (main memory, no I/O)", E4ParentComputation},
		{"E5", "XPath location-path evaluation latency per navigator", E5QueryEvaluation},
		{"E6", "Relabeled identifiers per insertion, by insertion depth", E6UpdateScope},
		{"E6b", "Relabeled identifiers per cascading deletion, by depth", E6Deletion},
		{"E6c", "Fan-out overflow: whole-document vs one-area renumbering", E6WorstCase},
		{"E6d", "Cumulative relabels over 50 insertions at one hot spot", E6Churn},
		{"E7", "Frame fan-out κ: naive partition vs §2.3 supplementation", E7FrameAdjust},
		{"E8", "Multilevel ruid: levels vs document size", E8Multilevel},
		{"E9", "Axis generation latency per scheme", E9Axes},
		{"E10", "Cold page reads per name lookup: partitioned vs monolithic", E10TableSelection},
		{"E11", "Structural join latency by strategy and scheme", E11StructuralJoins},
		{"E11b", "//a//b//c evaluation: join pipeline vs axis navigation", E11PathPipeline},
		{"E12", "Cold page reads per stored-axis operation", E12StorageAxes},
		{"E13", "Area budget ablation (document: xmark-4)", E13BudgetAblation},
		{"E14", "Branching twig patterns: join matcher vs navigation", E14TwigMatching},
		{"E17", "Out-of-core navigation (Lemma 1 at scale)", E17OutOfCore},
	}
}
