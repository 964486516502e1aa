// Update robustness (§3.2 of the paper): a live document receives a stream
// of insertions; the example counts how many existing identifiers each
// insertion invalidates under the original UID versus the 2-level ruid.
// This is the scenario the paper's Fig. 1 motivates — "the nearer to the
// root node the new node is inserted, the larger the scope of the
// identifier modification".
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/uid"
	"repro/internal/xmltree"
)

func main() {
	// A versioned-document workload: a report that keeps receiving new
	// sections and paragraphs near the front (the worst case for UID).
	mkDoc := func() *xmltree.Node { return xmltree.Recursive(3, 5) }

	fmt.Println("inserting 30 nodes near the front of a recursive report")
	fmt.Printf("document: %s\n\n", xmltree.Measure(mkDoc().DocumentElement()))

	run := func(name string, n scheme.Updatable, doc *xmltree.Node) {
		rng := rand.New(rand.NewSource(42))
		root := doc.DocumentElement()
		var total scheme.UpdateStats
		for i := 0; i < 30; i++ {
			sections := root.Elements()
			target := sections[rng.Intn(len(sections)/4)] // near the front
			st, err := n.InsertChild(target, 0, xmltree.NewElement("inserted"))
			if err != nil {
				log.Fatal(err)
			}
			total.Add(st)
		}
		fmt.Printf("%-6s relabeled=%5d  fullRebuilds=%v  areaRebuilds=%d\n",
			name, total.Relabeled, total.FullRebuild, total.AreaRebuilds)
	}

	docU := mkDoc()
	nu, err := uid.Build(docU, uid.Options{})
	if err != nil {
		log.Fatal(err)
	}
	run("uid", nu, docU)

	docR := mkDoc()
	nr, err := core.Build(docR, core.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 32, AdjustFanout: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	run("ruid", scheme.RUID{Num: nr}, docR)

	// Deletion is cascading (§3.2): removing a section takes its whole
	// subtree, and only right siblings inside the same area shift. Delete
	// the first nested section of the top-level section, which has right
	// siblings in both documents.
	fmt.Println("\ncascading deletion of the first nested section:")
	delTarget := func(doc *xmltree.Node) *xmltree.Node {
		return doc.DocumentElement().FirstChildElement("section")
	}
	stU, err := nu.DeleteChild(delTarget(docU), 2) // children: title, para, section...
	if err != nil {
		log.Fatal(err)
	}
	stR, _, err := nr.DeleteChildDelta(delTarget(docR), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uid  relabeled=%d\n", stU.Relabeled)
	fmt.Printf("ruid relabeled=%d\n", stR.Relabeled)

	// After heavy churn, a ruid holder can re-balance explicitly.
	changed, err := nr.Repartition(core.PartitionConfig{MaxAreaNodes: 32, AdjustFanout: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexplicit repartition relabeled %d nodes (a deliberate, rare event)\n", changed)
}
