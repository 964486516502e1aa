package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// TestPartitionedStoreSelection: the §4 decomposition splits a document
// into per-(name, area) tables, and name scans, point lookups and area
// selection each open only the tables they name.
func TestPartitionedStoreSelection(t *testing.T) {
	doc := xmltree.DBLP(200, 7)
	n, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 32, AdjustFanout: true}})
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPartitionedStore(16)
	root := doc.DocumentElement()
	if err := ps.Load(root, n); err != nil {
		t.Fatal(err)
	}
	if ps.Tables() < 2 {
		t.Fatalf("expected a real decomposition, got %d tables", ps.Tables())
	}
	// Every title row is reachable through name-selected tables.
	count := 0
	if err := ps.ScanName("title", func(_ []byte, r Record) bool {
		if r.Name != "title" {
			t.Fatalf("ScanName(title) yielded %q", r.Name)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 200 {
		t.Fatalf("title rows = %d, want 200", count)
	}
	// Point lookup through the decomposition.
	some := root.Child(17).FirstChildElement("title")
	id, _ := n.RUID(some)
	r, ok, _, err := ps.Lookup("title", id)
	if err != nil || !ok {
		t.Fatalf("Lookup: ok=%v err=%v", ok, err)
	}
	if r.Name != "title" {
		t.Fatalf("Lookup returned %+v", r)
	}
	// Selecting with an explicit area list opens at most those tables.
	if got := ps.SelectTables("title", []int64{id.Global}); len(got) != 1 {
		t.Fatalf("SelectTables with one area returned %d tables", len(got))
	}
	if names := ps.TableNames(); len(names) != ps.Tables() {
		t.Fatalf("TableNames length mismatch")
	}
}
