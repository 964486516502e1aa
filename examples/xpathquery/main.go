// XPath querying (§3.5 + §4 of the paper): a generated bibliography is
// numbered with ruid, stored in the simulated RDBMS substrate, and queried
// with location paths whose axes are generated by identifier arithmetic.
// The example also shows the §4 table decomposition selecting candidate
// tables by element name + global index.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func main() {
	doc := xmltree.DBLP(500, 11)
	n, err := core.Build(doc, core.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 48, AdjustFanout: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	engine := xpath.NewEngine(doc, xpath.SchemeNavigator{S: n})

	queries := []string{
		"/dblp/article[year > 1999]/title",
		"//article[count(author) > 2]/@key",
		"//author[. = 'Author 7-0']/..",
		"/dblp/article[5]/author[1]",
	}
	for _, q := range queries {
		res, err := engine.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-40s -> %d node(s)\n", q, len(res))
		for i, node := range res {
			if i == 3 {
				fmt.Printf("   ... %d more\n", len(res)-3)
				break
			}
			label := "(unnumbered)" // attributes are outside this numbering
			if id, ok := n.RUID(node); ok {
				label = id.String()
			}
			fmt.Printf("   %-16s %s\n", label, describe(node))
		}
	}

	// Store the document in the simulated RDBMS, decomposed per §4 into
	// one table per (element name, global index).
	ps := workload.NewPartitionedStore(16)
	if err := ps.Load(doc.DocumentElement(), n); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npartitioned store: %d tables for %d elements\n",
		ps.Tables(), len(doc.DocumentElement().Elements()))

	// A point lookup opens exactly one small table.
	title := doc.DocumentElement().Child(123).FirstChildElement("title")
	id, _ := n.RUID(title)
	ps.DropCaches()
	rec, ok, io, err := ps.Lookup("title", id)
	if err != nil || !ok {
		log.Fatalf("lookup failed: ok=%v err=%v", ok, err)
	}
	fmt.Printf("lookup title %s: kind=%d cold page reads=%d\n", id, rec.Kind, io.Reads)
}

func describe(n *xmltree.Node) string {
	switch n.Kind {
	case xmltree.Attribute:
		return "@" + n.Name + "=" + n.Data
	case xmltree.Text:
		return fmt.Sprintf("%q", n.Data)
	default:
		t := n.Texts()
		if len(t) > 40 {
			t = t[:40] + "..."
		}
		return n.Name + ": " + t
	}
}
