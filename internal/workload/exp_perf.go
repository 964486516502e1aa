package workload

import (
	"math/big"
	"math/rand"

	"repro/internal/core"
	"repro/internal/prepost"
	"repro/internal/scheme"
	"repro/internal/uid"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// E4ParentComputation regenerates Observation 2: the latency of computing a
// parent identifier from a child identifier, per scheme, entirely in main
// memory. The paper: "even though the function ... in ruid is more
// complicated than the one in the original UID, since the computation
// occurs mostly in main memory, the distinction is not significant."
func E4ParentComputation() *Table {
	t := &Table{
		ID:     "E4",
		Title:  "parent() / rparent() latency (main memory, no I/O)",
		Note:   "Observation 2 of §5",
		Header: []string{"document", "uid int64", "uid big-int", "ruid rparent", "prepost (stored)"},
	}
	for _, d := range Suite() {
		doc := d.Make()
		rn := BuildRUID(doc)
		un := BuildUID(doc)
		pn, err := prepost.Build(doc)
		if err != nil {
			panic(err)
		}
		n64, err64 := uid.Build64(doc, 0)

		// Sample identifiers across the document.
		nodes := doc.DocumentElement().Nodes()
		rng := rand.New(rand.NewSource(7))
		sample := make([]*xmltree.Node, 256)
		for i := range sample {
			sample[i] = nodes[rng.Intn(len(nodes))]
		}
		ruidIDs := make([]core.ID, len(sample))
		bigIDs := make([]*big.Int, len(sample))
		ppIDs := make([]scheme.ID, len(sample))
		ids64 := make([]int64, len(sample))
		for i, x := range sample {
			ruidIDs[i], _ = rn.RUID(x)
			bigIDs[i], _ = un.IDValue(x)
			ppIDs[i], _ = pn.IDOf(x)
			if err64 == nil {
				ids64[i] = n64.IDs[x]
			}
		}

		col64 := "overflow"
		if err64 == nil {
			k := n64.K
			d := timeOp(512, func() {
				for _, id := range ids64 {
					if id > 1 {
						sink64 += uid.Parent64(id, k)
					}
				}
			})
			col64 = formatDuration(d / 256)
		}
		k := big.NewInt(un.K())
		dBig := timeOp(64, func() {
			for _, id := range bigIDs {
				if id.Cmp(big.NewInt(1)) > 0 {
					sinkBig = uid.ParentID(id, k)
				}
			}
		})
		dRUID := timeOp(64, func() {
			for _, id := range ruidIDs {
				p, ok, _ := rn.RParent(id)
				if ok {
					sinkRUID = p
				}
			}
		})
		dPP := timeOp(64, func() {
			for _, id := range ppIDs {
				if p, ok := pn.Parent(id); ok {
					sinkID = p
				}
			}
		})
		t.AddRow(d.Name, col64, formatDuration(dBig/256), formatDuration(dRUID/256), formatDuration(dPP/256))
	}
	return t
}

// Sinks prevent the measured loops from being optimized away.
var (
	sink64   int64
	sinkBig  *big.Int
	sinkRUID core.ID
	sinkID   scheme.ID
	sinkInt  int
)

// QuerySet returns the XPath workload for a suite document name.
func QuerySet(doc string) []string {
	switch doc {
	case "dblp-1k":
		return []string{
			"/dblp/article", "//author", "/dblp/article[year > 1995]/title",
			"//article[count(author) > 1]/title", "//article[5]/author[1]",
		}
	case "xmark-4":
		return []string{
			"//item/name", "/site/regions/*/item", "//person[profile]/name",
			"//open_auction/bidder/increase", "//item[contains(name, '7')]",
		}
	case "shakespeare":
		return []string{
			"//SPEECH/SPEAKER", "/PLAY/ACT[3]/SCENE[2]//LINE",
			"//SPEECH[SPEAKER='PLAYER2']/LINE[1]", "//SCENE/TITLE",
		}
	default:
		return []string{"//*[count(*) > 2]", "//n3", "//section/title", "//e5/..", "//para"}
	}
}

// E5QueryEvaluation regenerates Observation 3: XPath location-path
// evaluation driven by ruid axis arithmetic, compared against the original
// UID axes and direct pointer navigation.
func E5QueryEvaluation() *Table {
	t := &Table{
		ID:     "E5",
		Title:  "XPath location-path evaluation latency per navigator",
		Note:   "Observation 3 of §5: querying with ruid in main memory is competitive",
		Header: []string{"document", "query", "results", "pointer", "ruid", "uid"},
	}
	for _, d := range []string{"dblp-1k", "xmark-4", "shakespeare"} {
		var doc *xmltree.Node
		for _, s := range Suite() {
			if s.Name == d {
				doc = s.Make()
			}
		}
		engines := map[string]*xpath.Engine{
			"pointer": xpath.NewEngine(doc, xpath.PointerNavigator{}),
			"ruid":    xpath.NewEngine(doc, xpath.SchemeNavigator{S: BuildRUID(doc)}),
			"uid":     xpath.NewEngine(doc, scheme.Navigator{S: BuildUID(doc)}),
		}
		for _, q := range QuerySet(d) {
			path, err := xpath.Parse(q)
			if err != nil {
				panic(err)
			}
			results := 0
			cells := map[string]string{}
			for name, e := range engines {
				res := e.Select(nil, path)
				results = len(res)
				dur := timeOp(3, func() { sinkInt = len(e.Select(nil, path)) })
				cells[name] = formatDuration(dur)
			}
			t.AddRow(d, q, results, cells["pointer"], cells["ruid"], cells["uid"])
		}
	}
	return t
}

// E9Axes regenerates the §3.4–3.5 axis-generation comparison: per-axis
// throughput of identifier-arithmetic generation (ruid, uid) vs pointer
// navigation, averaged over sampled context nodes.
func E9Axes() *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Axis generation latency per scheme",
		Note:   "§3.4–3.5 + Fig. 10; correctness is enforced by the conformance tests",
		Header: []string{"axis", "pointer", "ruid", "uid"},
	}
	doc := xmltree.XMark(4, 2)
	navs := []xpath.Navigator{
		xpath.PointerNavigator{},
		xpath.SchemeNavigator{S: BuildRUID(doc)},
		scheme.Navigator{S: BuildUID(doc)},
	}
	nodes := doc.DocumentElement().Nodes()
	rng := rand.New(rand.NewSource(21))
	sample := make([]*xmltree.Node, 64)
	for i := range sample {
		sample[i] = nodes[rng.Intn(len(nodes))]
	}
	// Each axis is walked to its end and its nodes counted, which is what a
	// node test without predicates costs.
	count := func(*xmltree.Node) bool { sinkInt++; return true }
	axes := []struct {
		name string
		walk func(xpath.Navigator, *xmltree.Node, xpath.Visit) bool
	}{
		{"child", xpath.Navigator.Children},
		{"descendant", xpath.Navigator.Descendants},
		{"ancestor", xpath.Navigator.Ancestors},
		{"following-sibling", xpath.Navigator.FollowingSiblings},
		{"preceding-sibling", xpath.Navigator.PrecedingSiblings},
		{"following", xpath.Navigator.Following},
		{"preceding", xpath.Navigator.Preceding},
	}
	for _, ax := range axes {
		cells := make([]string, len(navs))
		for i, nav := range navs {
			nav := nav
			dur := timeOp(1, func() {
				for _, n := range sample {
					ax.walk(nav, n, count)
				}
			})
			cells[i] = formatDuration(dur / 64)
		}
		t.AddRow(ax.name, cells[0], cells[1], cells[2])
	}
	return t
}
