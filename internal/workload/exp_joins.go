package workload

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/prepost"
	"repro/internal/query"
	"repro/internal/scheme"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// E11StructuralJoins extends the evaluation with the classic application of
// UID-family schemes (paper §1 and §6): ancestor-descendant structural
// joins over name lists. The upward-probe strategy exists only because the
// parent identifier is computable from a node's identifier — the paper's
// signature property — while the stack-merge strategy is what interval
// schemes (pre/post) must use.
func E11StructuralJoins() *Table {
	t := &Table{
		ID:    "E11",
		Title: "Structural join latency by strategy and scheme",
		Note:  "extension: §1's \"ascertaining identifiers prior to loading\" as an ancestor-descendant join",
		Header: []string{
			"document", "join", "|anc|", "|desc|", "pairs",
			"ruid upward", "ruid merge", "prepost merge", "naive",
		},
	}
	type jcase struct {
		doc  string
		mk   func() *xmltree.Node
		anc  string
		desc string
	}
	cases := []jcase{
		{"recursive-2x10", func() *xmltree.Node { return xmltree.Recursive(2, 10) }, "section", "title"},
		{"recursive-2x10", func() *xmltree.Node { return xmltree.Recursive(2, 10) }, "section", "section"},
		{"xmark-4", func() *xmltree.Node { return xmltree.XMark(4, 2) }, "item", "text"},
		{"xmark-4", func() *xmltree.Node { return xmltree.XMark(4, 2) }, "site", "name"},
		{"dblp-1k", func() *xmltree.Node { return xmltree.DBLP(1000, 2) }, "article", "author"},
	}
	for _, c := range cases {
		doc := c.mk()
		rn := BuildRUID(doc)
		pn, err := prepost.Build(doc)
		if err != nil {
			panic(err)
		}
		ixR := index.Build(doc.DocumentElement(), rn)
		listsP := scheme.IDsByName(doc.DocumentElement(), pn)

		ancsR, descsR := ixR.IDs(c.anc), ixR.IDs(c.desc)
		ancsP, descsP := listsP[c.anc], listsP[c.desc]
		pairs := len(index.MergeJoin(rn, ancsR, descsR))

		dUp := timeOp(3, func() { sinkInt = len(index.UpwardJoin(rn, ancsR, descsR)) })
		dMR := timeOp(3, func() { sinkInt = len(index.MergeJoin(rn, ancsR, descsR)) })
		dMP := timeOp(3, func() { sinkInt = len(index.MergeJoin(pn, ancsP, descsP)) })
		naive := "-"
		if len(ancsR)*len(descsR) <= 1<<22 {
			dN := timeOp(1, func() { sinkInt = len(index.NaiveJoin(rn, ancsR, descsR)) })
			naive = formatDuration(dN)
		}
		t.AddRow(
			c.doc, c.anc+"//"+c.desc,
			len(ancsR), len(descsR), pairs,
			formatDuration(dUp), formatDuration(dMR), formatDuration(dMP), naive,
		)
	}
	return t
}

// E11PathPipeline compares the join pipeline against axis navigation for
// multi-step descendant paths.
func E11PathPipeline() *Table {
	t := &Table{
		ID:     "E11b",
		Title:  "//a//b//c evaluation: join pipeline vs axis navigation",
		Note:   "extension of §4 \"query evaluation\"",
		Header: []string{"document", "path", "results", "join pipeline", "ruid navigation"},
	}
	type pcase struct {
		doc   string
		mk    func() *xmltree.Node
		names []string
	}
	cases := []pcase{
		{"recursive-2x10", func() *xmltree.Node { return xmltree.Recursive(2, 10) }, []string{"section", "section", "title"}},
		{"xmark-4", func() *xmltree.Node { return xmltree.XMark(4, 2) }, []string{"regions", "item", "text"}},
		{"dblp-1k", func() *xmltree.Node { return xmltree.DBLP(1000, 2) }, []string{"dblp", "article", "author"}},
	}
	for _, c := range cases {
		doc := c.mk()
		rn := BuildRUID(doc)
		ix := index.Build(doc.DocumentElement(), rn)
		results := len(ix.PathQuery(c.names...))

		dJoin := timeOp(3, func() { sinkInt = len(ix.PathQuery(c.names...)) })

		// Navigation: descendant scans from each step's matches.
		nav := func() int {
			cur := ix.IDs(c.names[0])
			for step := 1; step < len(c.names); step++ {
				seen := map[string]bool{}
				var next []scheme.ID
				for _, a := range cur {
					for _, d := range rn.Descendants(a) {
						node, ok := rn.NodeOf(d)
						if !ok || node.Name != c.names[step] {
							continue
						}
						k := string(d.Key())
						if !seen[k] {
							seen[k] = true
							next = append(next, d)
						}
					}
				}
				cur = next
			}
			return len(cur)
		}
		if got := nav(); got != results {
			panic(fmt.Sprintf("E11b: navigation %d != pipeline %d for %v", got, results, c.names))
		}
		dNav := timeOp(1, func() { sinkInt = nav() })
		t.AddRow(c.doc, "//"+join(c.names, "//"), results,
			formatDuration(dJoin), formatDuration(dNav))
	}
	return t
}

func join(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}

// E14TwigMatching extends E11 to branching patterns: the two-pass twig
// matcher over the name index against axis navigation, plus the planner's
// choice.
func E14TwigMatching() *Table {
	t := &Table{
		ID:     "E14",
		Title:  "Branching twig patterns: join matcher vs navigation",
		Note:   "extension of §4 \"query evaluation\" to containment-style patterns (§6 [11])",
		Header: []string{"document", "pattern", "results", "twig match", "navigation", "planner picks"},
	}
	type tcase struct {
		doc string
		mk  func() *xmltree.Node
		q   string
	}
	cases := []tcase{
		{"xmark-4", func() *xmltree.Node { return xmltree.XMark(4, 2) }, "//item[name]//text"},
		{"xmark-4", func() *xmltree.Node { return xmltree.XMark(4, 2) }, "//open_auction[bidder][itemref]/initial"},
		{"recursive-2x10", func() *xmltree.Node { return xmltree.Recursive(2, 10) }, "//section[title][para]//section/title"},
		{"recursive-2x10", func() *xmltree.Node { return xmltree.Recursive(2, 10) }, "//section[section[section]]"},
	}
	for _, c := range cases {
		doc := c.mk()
		rn := BuildRUID(doc)
		ix := index.Build(doc.DocumentElement(), rn)
		pattern, err := twig.Compile(c.q)
		if err != nil {
			panic(err)
		}
		engine := xpath.NewEngine(doc, xpath.SchemeNavigator{S: rn})
		path := xpath.MustParse(c.q)
		matched, _ := twig.MatchIDs(pattern, ix)
		results := len(matched)
		if nav := len(engine.Select(nil, path)); nav != results {
			panic(fmt.Sprintf("E14: twig %d != nav %d for %s", results, nav, c.q))
		}
		dTwig := timeOp(3, func() {
			matched, _ := twig.MatchIDs(pattern, ix)
			sinkInt = len(matched)
		})
		dNav := timeOp(1, func() { sinkInt = len(engine.Select(nil, path)) })

		pl := query.New(doc, rn)
		plan, err := pl.Plan(c.q)
		if err != nil {
			panic(err)
		}
		t.AddRow(c.doc, c.q, results, formatDuration(dTwig), formatDuration(dNav), plan.Kind.String())
	}
	return t
}
