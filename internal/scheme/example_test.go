package scheme_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// ExampleUpwardJoinPostings probes computed ancestor chains against a name
// list.
func ExampleUpwardJoinPostings() {
	doc, _ := xmltree.ParseString(`<a><s><t/></s><s><u><t/></u></s><t/></a>`)
	n, _ := core.Build(doc, core.Options{})
	ix := index.Build(doc.DocumentElement(), n)
	pairs := scheme.UpwardJoinPostings(n, ix.Postings("s"), ix.Postings("t"))
	fmt.Println("s//t pairs:", len(pairs))
	// Output:
	// s//t pairs: 2
}
