// Query planning (§4 "query evaluation" + §6 [4] DataGuides): a generated
// auction document is opened through the document facade, whose cost-based
// planner chooses between the identifier pipeline (a join chain or a twig)
// and axis navigation per query, prunes impossible name chains with the
// DataGuide, and explains each decision.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/xmltree"
)

func main() {
	d, err := document.FromTree(xmltree.XMark(6, 29), document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 48, AdjustFanout: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	snap := d.Snapshot()

	fmt.Printf("document: %s\n", xmltree.Measure(snap.Tree().DocumentElement()))
	fmt.Printf("dataguide: %d distinct label paths\n\n", snap.Guide().Size())

	queries := []string{
		"/site/regions//item/name",                // join pipeline
		"//open_auction[bidder][itemref]/initial", // twig match
		"//person[profile]/name",                  // twig match
		"//item[3]/name",                          // navigation (positional)
		"//name//item",                            // impossible chain: guide-pruned
	}
	for _, q := range queries {
		start := time.Now()
		res, plan, err := snap.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-42s %5d node(s) in %8v  [%s]\n",
			q, len(res), time.Since(start).Round(time.Microsecond), plan.Kind)
		fmt.Printf("    %s\n", plan.Explain())
	}
}
