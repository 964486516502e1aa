package index_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// ExampleNameIndex_PathQueryRUID runs a //a//b//c query as a pipeline of
// identifier joins.
func ExampleNameIndex_PathQueryRUID() {
	doc, _ := xmltree.ParseString(
		`<site><region><item><name>x</name></item></region><name>site-name</name></site>`)
	n, _ := core.Build(doc, core.Options{})
	ix := index.Build(doc.DocumentElement(), n)

	for _, id := range ix.PathQueryRUID("region", "item", "name") {
		node, _ := n.NodeOfID(id)
		fmt.Println(node.Texts())
	}
	fmt.Println("all name elements:", ix.Count("name"))
	// Output:
	// x
	// all name elements: 2
}

// ExampleUpwardJoinPostings probes computed ancestor chains against a name
// list.
func ExampleUpwardJoinPostings() {
	doc, _ := xmltree.ParseString(`<a><s><t/></s><s><u><t/></u></s><t/></a>`)
	n, _ := core.Build(doc, core.Options{})
	ix := index.Build(doc.DocumentElement(), n)
	pairs := index.UpwardJoinPostings(n, ix.Postings("s"), ix.Postings("t"))
	fmt.Println("s//t pairs:", len(pairs))
	// Output:
	// s//t pairs: 2
}
