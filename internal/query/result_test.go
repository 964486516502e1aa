package query

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// ghost is an identifier no node of the fixture below carries. Its parent
// chain, which is arithmetic and asks no node, climbs the root area to the
// document root, so a join under the root element keeps it.
var ghost = core.ID{Global: 1, Local: 1 << 40}

// disagreeingPlanner builds a planner whose index lists, under name, one
// identifier more than the numbering knows — the index/numbering
// disagreement a resolve must not paper over.
func disagreeingPlanner(t *testing.T, name string) *Planner {
	t.Helper()
	doc := xmltree.Recursive(2, 5)
	rn, err := core.Build(doc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	built := index.Build(doc.DocumentElement(), rn)
	lists := map[string]*index.PostingList{}
	for _, n := range built.Names() {
		lists[n] = built.Postings(n).List()
	}
	if _, ok := rn.NodeOfID(ghost); ok {
		t.Fatalf("fixture: %v resolves", ghost)
	}
	lists[name] = index.BuildPostingList(append(built.RuidIDs(name), ghost))
	ix, err := index.FromPostingLists(rn, lists)
	if err != nil {
		t.Fatalf("fixture: the doctored index is rejected at load: %v", err)
	}
	nodes, depthTotal := 0, 0
	doc.DocumentElement().Walk(func(x *xmltree.Node) bool {
		nodes++
		depthTotal += x.Depth()
		return true
	})
	p := NewWithState(doc, rn, ix, dataguide.Build(doc), nodes, depthTotal)
	p.SetObserver(obs.NewRegistry())
	return p
}

// TestResolveMissFailsLoudly: an identifier the numbering cannot resolve
// used to be dropped, so the answer came back one node short and nothing
// said so. Now Len counts it, and Nodes refuses with an error naming it —
// for the seed-only chain that never passes a kernel and for a join alike.
func TestResolveMissFailsLoudly(t *testing.T) {
	// Under RUID_DEBUG the query itself fails; that is the next test.
	defer func(prev bool) { debugChecks = prev }(debugChecks)
	debugChecks = false

	p := disagreeingPlanner(t, "title")
	honest := index.Build(p.doc.DocumentElement(), p.ix.RUID()).Count("title")
	for _, q := range []string{"//title", "/book//title"} {
		res, plan, err := p.RunMetered(q, nil, nil)
		if err != nil {
			t.Fatalf("RunMetered(%q): %v", q, err)
		}
		if plan.Kind != JoinPlan {
			t.Fatalf("%q planned as %s", q, plan.Kind)
		}
		if res.Len() != honest+1 {
			t.Fatalf("%q: Len = %d, want the index's own %d", q, res.Len(), honest+1)
		}
		nodes, err := res.Nodes()
		if err == nil || !strings.Contains(err.Error(), ghost.String()) {
			t.Fatalf("%q: Nodes = %d nodes, err %v; want an error naming %v", q, len(nodes), err, ghost)
		}
		if nodes != nil {
			t.Fatalf("%q: Nodes returned %d nodes beside its error", q, len(nodes))
		}
		if _, _, err := p.Run(q); err == nil {
			t.Fatalf("Run(%q) answered despite the unresolvable identifier", q)
		}
	}
	if got := p.m.resolved.Value(); got != 0 {
		t.Fatalf("query.nodes_resolved = %d after failed resolves only", got)
	}
}

// TestDebugChecksResolveEveryAnswer: under RUID_DEBUG a count-only query
// resolves its answer too, so the disagreement above cannot hide behind
// Len — and the check's own resolve is not counted as the caller's.
func TestDebugChecksResolveEveryAnswer(t *testing.T) {
	defer func(prev bool) { debugChecks = prev }(debugChecks)
	debugChecks = true

	p := disagreeingPlanner(t, "title")
	if _, _, err := p.RunMetered("//title", nil, nil); err == nil || !strings.Contains(err.Error(), ghost.String()) {
		t.Fatalf("debug RunMetered err = %v, want one naming %v", err, ghost)
	}

	res, _, err := p.RunMetered("//section//para", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("fixture: //section//para is empty")
	}
	if got := p.m.resolved.Value(); got != 0 {
		t.Fatalf("query.nodes_resolved = %d: the debug check counted as a resolve", got)
	}
	nodes, err := res.Nodes()
	if err != nil || len(nodes) != res.Len() {
		t.Fatalf("Nodes = %d nodes, err %v; Len %d", len(nodes), err, res.Len())
	}
	if got := p.m.resolved.Value(); got != uint64(res.Len()) {
		t.Fatalf("query.nodes_resolved = %d after one resolve of %d", got, res.Len())
	}
	if again, _ := res.Nodes(); len(again) != len(nodes) || p.m.resolved.Value() != uint64(res.Len()) {
		t.Fatalf("a second Nodes call resolved again: %d nodes, counter %d", len(again), p.m.resolved.Value())
	}
}
