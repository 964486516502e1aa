package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// ExampleBuild numbers a small document and prints κ, the table K and one
// identifier.
func ExampleBuild() {
	doc, _ := xmltree.ParseString(`<a><b><c/><d/></b><e/></a>`)
	n, _ := core.Build(doc, core.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 3, AdjustFanout: true},
	})
	fmt.Println("kappa:", n.Kappa())
	for _, row := range n.K() {
		fmt.Println(row)
	}
	b := doc.DocumentElement().Child(0)
	id, _ := n.RUID(b)
	fmt.Println("b:", id)
	// Output:
	// kappa: 1
	// 1	1	2
	// b: (1, 2, false)
}

// ExampleNumbering_RParent climbs from a leaf to the root using only
// identifier arithmetic — the Fig. 6 algorithm.
func ExampleNumbering_RParent() {
	doc, _ := xmltree.ParseString(`<a><b><c/></b></a>`)
	n, _ := core.Build(doc, core.Options{})
	c := doc.DocumentElement().Child(0).Child(0)
	id, _ := n.RUID(c)
	for {
		fmt.Println(id)
		p, ok, _ := n.RParent(id)
		if !ok {
			break
		}
		id = p
	}
	// Output:
	// (1, 3, false)
	// (1, 2, false)
	// (1, 1, true)
}

// ExampleNumbering_InsertChildDelta shows the §3.2 update accounting.
func ExampleNumbering_InsertChildDelta() {
	doc, _ := xmltree.ParseString(`<a><b/><c/><d/></a>`)
	n, _ := core.Build(doc, core.Options{})
	st, _, _ := n.InsertChildDelta(doc.DocumentElement(), 0, xmltree.NewElement("new"))
	fmt.Println("relabeled:", st.Relabeled, "area rebuilds:", st.AreaRebuilds)
	// Output:
	// relabeled: 3 area rebuilds: 1
}

// ExampleNumbering_Reconstruct rebuilds a document portion from a set of
// identifiers (§3.3).
func ExampleNumbering_Reconstruct() {
	doc, _ := xmltree.ParseString(`<lib><book><title>T1</title></book><book><title>T2</title></book></lib>`)
	n, _ := core.Build(doc, core.Options{})
	var ids []core.ID
	doc.DocumentElement().Walk(func(x *xmltree.Node) bool {
		if x.Name == "title" || x.Name == "lib" {
			id, _ := n.RUID(x)
			ids = append(ids, id)
		}
		return true
	})
	fmt.Println(xmltree.Serialize(n.ReconstructWithText(ids)))
	// Output:
	// <lib><title>T1</title><title>T2</title></lib>
}
