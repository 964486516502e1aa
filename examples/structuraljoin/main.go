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
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/prepost"
	"repro/internal/scheme"
	"repro/internal/twig"
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
	listsR := scheme.IDsByName(doc.DocumentElement(), scheme.RUID{Num: rn})
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
		return len(scheme.UpwardJoinPostings(rn, ixR.Postings(anc), ixR.Postings(desc)))
	})
	measure("ruid stack merge", func() int {
		return len(scheme.MergeJoinPostings(rn, ixR.Postings(anc), ixR.Postings(desc)))
	})
	measure("prepost stack merge", func() int {
		return len(scheme.MergeJoin(pn, listsP[anc], listsP[desc]))
	})
	measure("naive quadratic", func() int {
		return len(scheme.NaiveJoin(scheme.RUID{Num: rn}, listsR[anc], listsR[desc]))
	})

	// A three-step descendant path as a pipeline of upward semi-joins.
	const path = "//regions//item//name"
	chain, err := twig.Compile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npath %s via join pipeline:\n", path)
	start := time.Now()
	result, _ := twig.MatchIDsWith(chain, ixR, exec.Default())
	fmt.Printf("  %d results in %v\n", len(result), time.Since(start).Round(time.Microsecond))

	// Reconstruct the first few answers as a document portion (§3.3),
	// including their region/item context, purely from identifiers.
	var portion []core.ID
	for _, id := range result[:3] {
		portion = append(portion, id)
		cur := id
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
