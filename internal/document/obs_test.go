package document_test

import (
	"strings"
	"testing"

	"repro/internal/document"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// TestObservedDocument drives the full observability surface of the facade:
// epoch gauges after open, query metrics after queries, incremental
// publication counters with delta scope after an insert, and the EXPLAIN
// ANALYZE rendering.
func TestObservedDocument(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := document.OpenString(librarySrc, document.Options{Observe: reg})
	if err != nil {
		t.Fatal(err)
	}
	if d.Registry() != reg {
		t.Fatal("Registry() did not return the configured registry")
	}

	if got := reg.Gauge("doc.epoch").Value(); got != 1 {
		t.Errorf("doc.epoch = %d after open", got)
	}
	if reg.Gauge("doc.nodes").Value() == 0 || reg.Gauge("doc.names").Value() == 0 {
		t.Errorf("epoch gauges empty: nodes=%d names=%d",
			reg.Gauge("doc.nodes").Value(), reg.Gauge("doc.names").Value())
	}
	if reg.Counter("doc.publish_full").Value() != 1 {
		t.Errorf("doc.publish_full = %d", reg.Counter("doc.publish_full").Value())
	}

	if _, _, err := d.Query("//book/title"); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("query.count").Value() == 0 {
		t.Error("query.count not recorded through the facade")
	}
	if reg.Histogram("query.query_ns").Count() == 0 {
		t.Error("query.query_ns not recorded")
	}

	// An insert publishes incrementally: the scope counters must show a
	// touched-name count and a larger shared-name count (structural
	// sharing is the common case in this document).
	book := xmltree.NewElement("book")
	title := xmltree.NewElement("title")
	title.AppendChild(xmltree.NewText("Four"))
	book.AppendChild(title)
	if _, err := d.Insert("//shelf[@floor='1']", 0, book); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("doc.publish_incremental").Value() != 1 {
		t.Fatalf("doc.publish_incremental = %d", reg.Counter("doc.publish_incremental").Value())
	}
	if reg.Gauge("doc.epoch").Value() != 2 {
		t.Errorf("doc.epoch = %d after insert", reg.Gauge("doc.epoch").Value())
	}
	touched := reg.Counter("index.delta_names_touched").Value()
	shared := reg.Counter("index.delta_names_shared").Value()
	if touched == 0 {
		t.Error("insert touched no names")
	}
	if shared == 0 {
		t.Error("insert shared no names: delta publication lost its sharing")
	}
	if reg.Histogram("doc.publish_ns").Count() != 2 {
		t.Errorf("doc.publish_ns count = %d", reg.Histogram("doc.publish_ns").Count())
	}
	if reg.Gauge("doc.epochs_live").Value() < 1 {
		t.Errorf("doc.epochs_live = %d", reg.Gauge("doc.epochs_live").Value())
	}

	out, err := d.ExplainAnalyze("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace //book/title", "plan=", "resolve"} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainAnalyze missing %q:\n%s", want, out)
		}
	}

	// The traced query path returns the same nodes as the plain one.
	plain, _, err := d.Query("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("//book/title")
	res, _, err := d.Snapshot().QueryMetered("//book/title", tr, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := res.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) != len(plain) {
		t.Fatalf("traced %d nodes, plain %d", len(traced), len(plain))
	}
	for i := range traced {
		if traced[i] != plain[i] {
			t.Fatalf("traced node %d differs", i)
		}
	}
}

// TestUnobservedDocumentUnchanged pins the default: without Observe, no
// registry exists and queries behave identically.
func TestUnobservedDocumentUnchanged(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Registry() != nil {
		t.Fatal("unobserved document has a registry")
	}
	nodes, _, err := d.Query("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) == 0 {
		t.Fatal("query returned nothing")
	}
	// ExplainAnalyze works without a registry: tracing is per-query state.
	out, err := d.ExplainAnalyze("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "plan=") {
		t.Errorf("ExplainAnalyze without registry: %q", out)
	}
}
