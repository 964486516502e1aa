package scheme

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// ghostChildren is a boxed axis scheme whose Children lists one identifier
// that resolves to no node.
type ghostChildren struct {
	AxisScheme
	ghost ID
}

func (g ghostChildren) Children(id ID) []ID {
	return append(g.AxisScheme.Children(id), g.ghost)
}

// TestBoxedGhostIdentifier: an identifier a boxed scheme generates and then
// cannot resolve is skipped — the answer comes back short and nothing says
// so — unless RUID_DEBUG is on, when the walk panics naming it.
func TestBoxedGhostIdentifier(t *testing.T) {
	defer func(prev bool) { debugChecks = prev }(debugChecks)

	doc, err := xmltree.ParseString("<a><b/><b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.Build(doc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ghost := core.ID{Global: 1 << 40, Local: 2}
	e := xpath.NewEngine(doc, Navigator{S: ghostChildren{RUID{Num: n}, ghost}})

	debugChecks = false
	if got, err := e.Query("/a/b"); err != nil || len(got) != 2 {
		t.Fatalf("/a/b = %d nodes, err %v", len(got), err)
	}

	debugChecks = true
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), ghost.String()) {
			t.Fatalf("recovered %v, want a panic naming %v", r, ghost)
		}
	}()
	e.Query("/a/b")
}
