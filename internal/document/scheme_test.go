package document_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/nestedint"
	"repro/internal/scheme"
	"repro/internal/uid"
	"repro/internal/xmltree"
)

// TestOverflowSentinelShared: the three schemes that can run out of int64
// report it with one sentinel, so a caller holding any of the names matches
// an overflow from any scheme.
func TestOverflowSentinelShared(t *testing.T) {
	_, uidErr := uid.Build64(xmltree.Linear(80), 3)
	_, nestedErr := nestedint.Build(xmltree.Linear(150))
	wide, err := xmltree.ParseString("<a><b/><c/></a>")
	if err != nil {
		t.Fatal(err)
	}
	_, coreErr := core.Build(wide, core.Options{Partition: core.PartitionConfig{MaxLocalBits: 1}})
	for name, err := range map[string]error{"uid": uidErr, "nestedint": nestedErr, "core": coreErr} {
		for as, sentinel := range map[string]error{
			"scheme": scheme.ErrOverflow, "core": core.ErrOverflow, "uid": uid.ErrOverflow, "nestedint": nestedint.ErrOverflow,
		} {
			if !errors.Is(err, sentinel) {
				t.Errorf("%s overflow %v does not match %s.ErrOverflow", name, err, as)
			}
		}
		if err == scheme.ErrOverflow {
			t.Errorf("%s returns the sentinel bare; it is to be wrapped with what overflowed", name)
		}
	}
}

// TestSchemeOptionConformance: a document opened under each registered
// scheme answers the same query workload with the same result paths as the
// ruid default — the facade-level statement of the schemetest contract.
func TestSchemeOptionConformance(t *testing.T) {
	queries := []string{
		"/library/shelf/book/title",
		"//book//author",
		"//book[author]/title",
		"//shelf[@floor='2']/book/title",
		"//book/title",
		"//title/text()",
		"//*",
	}
	ref, err := document.OpenString(librarySrc, document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"nestedint", "ancestry", "prepost", "limoon", "uid"} {
		d, err := document.OpenString(librarySrc, document.Options{Scheme: name})
		if err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		if got := d.SchemeName(); got != name {
			t.Fatalf("SchemeName = %q, want %q", got, name)
		}
		for _, q := range queries {
			got, _, err := d.Query(q)
			if err != nil {
				t.Fatalf("%s: Query(%q): %v", name, q, err)
			}
			want, _, err := ref.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			gs, ws := sortedPaths(got), sortedPaths(want)
			if strings.Join(gs, "|") != strings.Join(ws, "|") {
				t.Errorf("%s: Query(%q) = %v, want %v", name, q, gs, ws)
			}
		}
		st := d.Stats()
		if st.Scheme != name || st.Nodes == 0 || st.Names == 0 {
			t.Errorf("%s: Stats = %+v", name, st)
		}
		if st.Areas != 0 || st.Kappa != 0 {
			t.Errorf("%s: ruid-only stats should be zero, got %+v", name, st)
		}
	}
}

// TestSchemeUpdates: an updatable non-ruid scheme serves inserts and deletes
// through the facade, publishing fresh epochs whose queries see the change.
func TestSchemeUpdates(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{Scheme: "nestedint"})
	if err != nil {
		t.Fatal(err)
	}
	before, _, _ := d.Query("//book")
	old := d.Snapshot()
	book := xmltree.NewElement("book")
	title := xmltree.NewElement("title")
	title.AppendChild(xmltree.NewText("Four"))
	book.AppendChild(title)
	if _, err := d.Insert("//shelf[@floor='2']", 1, book); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	after, _, _ := d.Query("//book")
	if len(after) != len(before)+1 {
		t.Fatalf("after insert: %d books, want %d", len(after), len(before)+1)
	}
	// Snapshot isolation holds in generic mode too: the pinned epoch still
	// sees the old count.
	pinned, _, _ := old.Query("//book")
	if len(pinned) != len(before) {
		t.Errorf("pinned snapshot sees %d books, want %d", len(pinned), len(before))
	}
	if _, err := d.Delete("//shelf[@floor='2']", 1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	final, _, _ := d.Query("//book")
	if len(final) != len(before) {
		t.Errorf("after delete: %d books, want %d", len(final), len(before))
	}
	if e := d.Stats().Epoch; e != 3 {
		t.Errorf("epoch = %d, want 3", e)
	}
}

// TestSchemeReadOnly: schemes without the Update capability reject writes
// with ErrReadOnlyScheme and publish nothing.
func TestSchemeReadOnly(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{Scheme: "ancestry"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Insert("//shelf", 0, xmltree.NewElement("book"))
	if !errors.Is(err, document.ErrReadOnlyScheme) {
		t.Fatalf("Insert err = %v, want ErrReadOnlyScheme", err)
	}
	_, err = d.Delete("//shelf", 0)
	if !errors.Is(err, document.ErrReadOnlyScheme) {
		t.Fatalf("Delete err = %v, want ErrReadOnlyScheme", err)
	}
	if e := d.Stats().Epoch; e != 1 {
		t.Errorf("epoch = %d after rejected writes, want 1", e)
	}
}

// TestSchemeUnknown: an unregistered name fails fast at Open.
func TestSchemeUnknown(t *testing.T) {
	if _, err := document.OpenString(librarySrc, document.Options{Scheme: "nosuch"}); err == nil {
		t.Fatal("Open with unknown scheme succeeded")
	}
}

// TestSchemeAuto pins the adaptive picker's choice per generator family:
// recursion-heavy narrow documents get the continued-fraction labels, wide
// or shallow ones stay on ruid. The choice must be deterministic — opening
// the same tree twice yields the same scheme.
func TestSchemeAuto(t *testing.T) {
	cases := []struct {
		family string
		build  func() *xmltree.Node
		want   string
	}{
		{"recursive", func() *xmltree.Node { return xmltree.Recursive(2, 6) }, "nestedint"},
		{"xmark", func() *xmltree.Node { return xmltree.XMark(1, 7) }, "ruid"},
		{"skewed", func() *xmltree.Node { return xmltree.Skewed(9, 2, 8) }, "ruid"},
		{"dblp", func() *xmltree.Node { return xmltree.DBLP(300, 4) }, "ruid"},
	}
	for _, c := range cases {
		var prev string
		for trial := 0; trial < 2; trial++ {
			d, err := document.FromTree(c.build(), document.Options{Scheme: "auto"})
			if err != nil {
				t.Fatalf("%s: %v", c.family, err)
			}
			got := d.SchemeName()
			if got != c.want {
				t.Errorf("%s: auto picked %q, want %q", c.family, got, c.want)
			}
			if trial > 0 && got != prev {
				t.Errorf("%s: auto is nondeterministic (%q then %q)", c.family, prev, got)
			}
			prev = got
			// Whatever auto picked must actually answer queries.
			if res, _, err := d.Query("//*"); err != nil || len(res) == 0 {
				t.Errorf("%s: query under picked scheme: %d nodes, err %v", c.family, len(res), err)
			}
		}
	}
}

// TestSchemeConformanceAcrossGenerators: the nestedint facade answers a
// join-heavy workload identically to the ruid facade on every generator
// family — the acceptance bar for scheme plug-in correctness.
func TestSchemeConformanceAcrossGenerators(t *testing.T) {
	docs := map[string]func() *xmltree.Node{
		"recursive": func() *xmltree.Node { return xmltree.Recursive(2, 6) },
		"xmark":     func() *xmltree.Node { return xmltree.XMark(1, 7) },
		"skewed":    func() *xmltree.Node { return xmltree.Skewed(9, 2, 8) },
	}
	queries := []string{
		"//section//title", "//section/title", "/book//para",
		"/site//item/name", "//people/person", "//wide/deep",
		"//*",
	}
	for family, build := range docs {
		ref, err := document.FromTree(build(), document.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := document.FromTree(build(), document.Options{Scheme: "nestedint"})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			got, _, err := d.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", family, err)
			}
			want, _, err := ref.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			gs, ws := sortedPaths(got), sortedPaths(want)
			if fmt.Sprint(gs) != fmt.Sprint(ws) {
				t.Errorf("%s: Query(%q): nestedint %d results, ruid %d", family, q, len(gs), len(ws))
			}
		}
	}
}
