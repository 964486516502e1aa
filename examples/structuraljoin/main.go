// Structural joins (paper §1 and §6): the signature ability of UID-family
// schemes — computing ancestor identifiers from a node's identifier — turns
// ancestor-descendant path matching into hash probes over name lists,
// without touching the tree or the disk. This example indexes an XMark-like
// site, runs the same //a//b join with three strategies, and evaluates a
// three-step path with the join pipeline, reconstructing the answer
// fragment per §3.3.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/prepost"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

func main() {
	doc := xmltree.XMark(8, 17)
	stats := xmltree.Measure(doc.DocumentElement())
	fmt.Printf("document: %s\n\n", stats)

	rn, err := core.Build(doc, core.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 48, AdjustFanout: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	pn, err := prepost.Build(doc)
	if err != nil {
		log.Fatal(err)
	}
	ixR := index.Build(doc.DocumentElement(), rn)
	listsP := scheme.IDsByName(doc.DocumentElement(), pn)

	anc, desc := "item", "text"
	fmt.Printf("join %s//%s: |anc|=%d |desc|=%d\n",
		anc, desc, ixR.Count(anc), ixR.Count(desc))

	measure := func(name string, fn func() int) {
		start := time.Now()
		pairs := fn()
		fmt.Printf("  %-22s %6d pairs in %v\n", name, pairs, time.Since(start).Round(time.Microsecond))
	}
	measure("ruid upward probe", func() int {
		return len(index.UpwardJoin(rn, ixR.IDs(anc), ixR.IDs(desc)))
	})
	measure("ruid stack merge", func() int {
		return len(index.MergeJoin(rn, ixR.IDs(anc), ixR.IDs(desc)))
	})
	measure("prepost stack merge", func() int {
		return len(index.MergeJoin(pn, listsP[anc], listsP[desc]))
	})
	measure("naive quadratic", func() int {
		return len(index.NaiveJoin(rn, ixR.IDs(anc), ixR.IDs(desc)))
	})

	// A three-step descendant path as a pipeline of upward semi-joins.
	names := []string{"regions", "item", "name"}
	fmt.Printf("\npath //%s//%s//%s via join pipeline:\n", names[0], names[1], names[2])
	start := time.Now()
	result := ixR.PathQuery(names...)
	fmt.Printf("  %d results in %v\n", len(result), time.Since(start).Round(time.Microsecond))

	// Reconstruct the first few answers as a document portion (§3.3),
	// including their region/item context, purely from identifiers.
	var portion []core.ID
	for _, id := range result[:3] {
		portion = append(portion, id.(core.ID))
		cur := id.(core.ID)
		for {
			p, ok, err := rn.RParent(cur)
			if err != nil || !ok {
				break
			}
			portion = append(portion, p)
			cur = p
		}
	}
	frag := rn.ReconstructWithText(portion)
	fmt.Printf("\nreconstructed portion (first 3 answers with ancestor context):\n%s\n",
		xmltree.Serialize(frag))
}
