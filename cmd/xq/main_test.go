package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(p, []byte(src), 0o600); err != nil {
		t.Fatal(err)
	}
	return p
}

// cfg builds the flag config most tests use: only the navigator varies.
func cfg(nav string) config {
	return config{nav: nav, area: 8, parallel: "auto"}
}

const testDoc = `<lib><book id="b1"><title>One</title></book><book id="b2"><title>Two</title></book></lib>`

func TestRunNavigators(t *testing.T) {
	p := writeDoc(t, testDoc)
	for _, nav := range []string{"ruid", "uid", "pointer"} {
		var out strings.Builder
		if err := run(cfg(nav), "//book[2]/title", p, &out); err != nil {
			t.Fatalf("%s: %v", nav, err)
		}
		if got := strings.TrimSpace(out.String()); got != "/lib[0]/book[1]/title[0]" {
			t.Errorf("%s: output %q", nav, got)
		}
	}
}

func TestRunSerialize(t *testing.T) {
	p := writeDoc(t, testDoc)
	var out strings.Builder
	c := cfg("ruid")
	c.serialize = true
	if err := run(c, "/lib/book[@id='b1']", p, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != `<book id="b1"><title>One</title></book>` {
		t.Errorf("serialize output %q", got)
	}
}

func TestRunAttributesAndText(t *testing.T) {
	p := writeDoc(t, testDoc)
	var out strings.Builder
	if err := run(cfg("ruid"), "//book/@id", p, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `@id = "b1"`) {
		t.Errorf("attribute output wrong: %s", out.String())
	}
	out.Reset()
	if err := run(cfg("pointer"), "//title/text()", p, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"One"`) || !strings.Contains(out.String(), `"Two"`) {
		t.Errorf("text output wrong: %s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	p := writeDoc(t, testDoc)
	var out strings.Builder
	if err := run(cfg("bogus"), "//a", p, &out); err == nil {
		t.Errorf("unknown navigator accepted")
	}
	if err := run(cfg("ruid"), "//a[", p, &out); err == nil {
		t.Errorf("bad query accepted")
	}
	if err := run(cfg("ruid"), "//a", filepath.Join(t.TempDir(), "nope.xml"), &out); err == nil {
		t.Errorf("missing file accepted")
	}
	bad := cfg("ruid")
	bad.parallel = "sideways"
	if err := run(bad, "//a", p, &out); err == nil {
		t.Errorf("unknown -parallel mode accepted")
	}
	uidStats := cfg("uid")
	uidStats.stats = true
	if err := run(uidStats, "//a", p, &out); err == nil {
		t.Errorf("-stats with -nav uid accepted")
	}
}

func TestRunPlanner(t *testing.T) {
	p := writeDoc(t, testDoc)
	var out strings.Builder
	if err := run(cfg("planner"), "/lib/book/title", p, &out); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(out.String())
	if !strings.Contains(got, "/lib[0]/book[0]/title[0]") ||
		!strings.Contains(got, "/lib[0]/book[1]/title[0]") {
		t.Fatalf("planner output: %q", got)
	}
}

// TestRunExplainAnalyze checks that -explain-analyze prints the traced
// report (not the result paths), including the plan line and per-stage
// spans, and that it works from any -nav since the flag implies planner.
func TestRunExplainAnalyze(t *testing.T) {
	p := writeDoc(t, testDoc)
	var out strings.Builder
	c := cfg("ruid") // -explain-analyze overrides the navigator
	c.explain = true
	if err := run(c, "/lib/book/title", p, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"trace /lib/book/title", "plan=", "total=", "resolve"} {
		if !strings.Contains(got, want) {
			t.Errorf("explain-analyze output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "/lib[0]/book[0]/title[0]") {
		t.Errorf("explain-analyze printed result paths:\n%s", got)
	}
}

// TestRunStats checks that -stats appends a registry dump, in the Prometheus
// exposition, after the results for the facade-backed navigators.
func TestRunStats(t *testing.T) {
	p := writeDoc(t, testDoc)
	for _, nav := range []string{"planner", "ruid"} {
		var out strings.Builder
		c := cfg(nav)
		c.stats = true
		if err := run(c, "//book/title", p, &out); err != nil {
			t.Fatalf("%s: %v", nav, err)
		}
		got := out.String()
		if !strings.Contains(got, "ruid_doc_epoch 1") {
			t.Errorf("%s: stats dump missing doc.epoch:\n%s", nav, got)
		}
		if nav == "planner" && !strings.Contains(got, "ruid_query_count 1") {
			t.Errorf("planner: stats dump missing query.count:\n%s", got)
		}
	}
}

// TestRunPathsAfterWrites is the stale-path regression through the CLI: a
// write relabels d (one <xqwrite/> in front of it) and copies it, and shares
// the nodes below with the first epoch, where d stands at position 2. The
// printed path must be the queried epoch's.
func TestRunPathsAfterWrites(t *testing.T) {
	p := writeDoc(t, `<a><b><k/></b><c><k/></c><d><e><f><g><k/><k/><k/></g></f></e></d></a>`)
	for _, nav := range []string{"ruid", "planner"} {
		c := cfg(nav)
		c.area, c.writes = 3, 1
		var out strings.Builder
		if err := run(c, "//g/k", p, &out); err != nil {
			t.Fatalf("%s: %v", nav, err)
		}
		want := "/a[0]/d[3]/e[0]/f[0]/g[0]/k[0]\n/a[0]/d[3]/e[0]/f[0]/g[0]/k[1]\n/a[0]/d[3]/e[0]/f[0]/g[0]/k[2]"
		if got := strings.TrimSpace(out.String()); got != want {
			t.Errorf("%s: output %q, want %q", nav, got, want)
		}
	}
}
