package twig_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// ExampleMatchIDsWith runs a //a//b//c query as a pipeline of identifier
// semi-joins: a join chain is a twig without branches.
func ExampleMatchIDsWith() {
	doc, _ := xmltree.ParseString(
		`<site><region><item><name>x</name></item></region><name>site-name</name></site>`)
	n, _ := core.Build(doc, core.Options{})
	ix := index.Build(doc.DocumentElement(), n)
	chain, _ := twig.Compile("//region//item//name")

	ids, _ := twig.MatchIDsWith(chain, ix, exec.Default())
	for _, id := range ids {
		node, _ := n.NodeOfID(id)
		fmt.Println(node.Texts())
	}
	fmt.Println("all name elements:", ix.Count("name"))
	// Output:
	// x
	// all name elements: 2
}
