package xpath

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/scheme"
	"repro/internal/uid"
	"repro/internal/xmltree"
)

// TestParseNeverPanics: the parser returns errors, never panics, on
// arbitrary byte soup and on near-miss query strings.
func TestParseNeverPanics(t *testing.T) {
	alphabet := []byte("ab/[]@*.'\"=<>()|,:x1 -")
	f := func(seed int64, lenRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(lenRaw)%40
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		src := string(buf)
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Parse(%q) panicked: %v", src, r)
			}
		}()
		_, _ = Parse(src)
		_, _ = ParseUnion(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParseRenderReparse: parsing the rendered form of a parsed query
// yields the same rendering (the unabbreviated syntax is a fixed point).
func TestParseRenderReparse(t *testing.T) {
	queries := []string{
		"/a/b[c]", "//x[@y='z']", "a[1][last()]", "a[not(b) and c='2']",
		"preceding-sibling::q[position() < 3]", "a[count(b/c) >= 1]",
		"//*[contains(., 'x') or d]",
	}
	for _, q := range queries {
		p1, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		r1 := p1.String()
		p2, err := Parse(r1)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", r1, q, err)
		}
		if r2 := p2.String(); r2 != r1 {
			t.Errorf("render not stable: %q -> %q -> %q", q, r1, r2)
		}
	}
}

// ghostChildren is a boxed axis scheme whose Children lists one identifier
// that resolves to no node.
type ghostChildren struct {
	scheme.AxisScheme
	ghost scheme.ID
}

func (g ghostChildren) Children(id scheme.ID) []scheme.ID {
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
	n, err := uid.Build(doc, uid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ghost := uid.NewID(1 << 40)
	e := NewEngine(doc, SchemeNavigator{S: ghostChildren{n, ghost}})

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
