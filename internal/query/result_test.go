package query

import (
	"errors"
	"fmt"
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
// A counted run reports the same Len and has no nodes to give at all.
func TestResolveMissFailsLoudly(t *testing.T) {
	// Under RUID_DEBUG the query itself fails; that is the next test.
	defer func(prev bool) { debugChecks = prev }(debugChecks)
	debugChecks = false

	p := disagreeingPlanner(t, "title")
	honest := index.Build(p.num.Root(), p.num).Count("title")
	for _, q := range []string{"//title", "/book//title"} {
		counted, _, err := p.RunMetered(q, nil, nil, false)
		if err != nil {
			t.Fatalf("counted RunMetered(%q): %v", q, err)
		}
		if nodes, err := counted.Nodes(); counted.Len() != honest+1 || nodes != nil || !errors.Is(err, ErrCounted) {
			t.Fatalf("%q counted: Len %d, Nodes = %d nodes, err %v; want %d and ErrCounted", q, counted.Len(), len(nodes), err, honest+1)
		}
		res, plan, err := p.RunMetered(q, nil, nil, true)
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

// TestDebugChecksResolveEveryAnswer: under RUID_DEBUG a query resolves its
// answer too, counted or kept, so the disagreement above cannot hide behind
// Len — and the check's own resolve is not counted as the caller's.
func TestDebugChecksResolveEveryAnswer(t *testing.T) {
	defer func(prev bool) { debugChecks = prev }(debugChecks)
	debugChecks = true

	p := disagreeingPlanner(t, "title")
	for _, q := range []string{"//title", "/book//title"} {
		for _, resolve := range []bool{false, true} {
			if _, _, err := p.RunMetered(q, nil, nil, resolve); err == nil || !strings.Contains(err.Error(), ghost.String()) {
				t.Fatalf("debug RunMetered(%q, resolve %v) err = %v, want one naming %v", q, resolve, err, ghost)
			}
		}
	}

	res, _, err := p.RunMetered("//section//para", nil, nil, true)
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

// TestCountedAnswerFailsLoudly: under RUID_DEBUG a counted query is run again
// written out, and an answer whose length is not the count is a panic naming
// both — for the seed-only chain, the root-output twig whose owned answer is
// only read for its length, a chain whose last semi-join counts, and a
// branching twig alike. Doctoring the count by one trips it.
func TestCountedAnswerFailsLoudly(t *testing.T) {
	defer func(prev bool) { debugChecks = prev }(debugChecks)
	debugChecks = true
	doc := xmltree.Recursive(2, 6)
	rn, err := core.Build(doc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := New(doc, rn)
	for _, q := range []string{"//section", "//section[title]", "/book//section/para", "//section[title]//para"} {
		res, plan, err := p.RunMetered(q, nil, nil, false)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if plan.Kind == NavPlan || res.Len() == 0 {
			t.Fatalf("fixture: %q answered %d by a %s plan", q, res.Len(), plan.Kind)
		}
		doctored := func() (panicked any) {
			defer func() { panicked = recover() }()
			p.check(Result{n: res.Len() + 1, counted: true}, plan)
			return nil
		}
		want := fmt.Sprintf("counted %d identifiers, written out %d", res.Len()+1, res.Len())
		if msg, _ := doctored().(string); !strings.Contains(msg, want) {
			t.Fatalf("%q: doctored count: panic %q, want one saying %q", q, msg, want)
		}
	}
}
