package index_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

func buildRUIDIndex(t *testing.T) (*core.Numbering, *index.NameIndex) {
	t.Helper()
	doc := xmltree.Recursive(2, 7)
	n, err := core.Build(doc, core.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 16, AdjustFanout: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, index.Build(doc.DocumentElement(), n)
}

func boxIDs(ids []core.ID) []scheme.ID {
	out := make([]scheme.ID, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

// TestFastPathAgree pins that every ruid join, over slice views of flat
// core.ID postings, returns exactly what its generic counterpart returns on
// the boxed form of the same inputs.
func TestFastPathAgree(t *testing.T) {
	n, ix := buildRUIDIndex(t)
	ancs := ix.RuidIDs("section")
	descs := ix.RuidIDs("title")
	if len(ancs) == 0 || len(descs) == 0 {
		t.Fatalf("test document has no section/title elements")
	}
	bAncs, bDescs := boxIDs(ancs), boxIDs(descs)
	sAncs, sDescs := index.SlicePostings(ancs), index.SlicePostings(descs)

	t.Run("UpwardJoin", func(t *testing.T) {
		fast := index.UpwardJoinPostings(n, sAncs, sDescs)
		slow := index.UpwardJoin(n, bAncs, bDescs)
		if len(fast) != len(slow) {
			t.Fatalf("fast %d pairs, generic %d", len(fast), len(slow))
		}
		for i := range fast {
			if fast[i].Ancestor != slow[i].Ancestor.(core.ID) ||
				fast[i].Descendant != slow[i].Descendant.(core.ID) {
				t.Fatalf("pair %d: fast %v/%v generic %v/%v", i,
					fast[i].Ancestor, fast[i].Descendant, slow[i].Ancestor, slow[i].Descendant)
			}
		}
	})
	t.Run("MergeJoin", func(t *testing.T) {
		fast := index.MergeJoinPostings(n, sAncs, sDescs)
		slow := index.MergeJoin(n, bAncs, bDescs)
		if len(fast) != len(slow) {
			t.Fatalf("fast %d pairs, generic %d", len(fast), len(slow))
		}
		for i := range fast {
			if fast[i].Ancestor != slow[i].Ancestor.(core.ID) ||
				fast[i].Descendant != slow[i].Descendant.(core.ID) {
				t.Fatalf("pair %d differs", i)
			}
		}
	})
	semis := []struct {
		name string
		fast func() []core.ID
		slow func() []scheme.ID
	}{
		{"UpwardSemiJoin",
			func() []core.ID { return index.UpwardSemiJoinPostings(n, sAncs, sDescs) },
			func() []scheme.ID { return index.UpwardSemiJoin(n, bAncs, bDescs) }},
		{"ParentSemiJoin",
			func() []core.ID { return index.ParentSemiJoinPostings(n, sAncs, sDescs) },
			func() []scheme.ID { return index.ParentSemiJoin(n, bAncs, bDescs) }},
		{"AncestorSemiJoin",
			func() []core.ID { return index.AncestorSemiJoinPostings(n, sAncs, sDescs) },
			func() []scheme.ID { return index.AncestorSemiJoin(n, bAncs, bDescs) }},
		{"ChildSemiJoin",
			func() []core.ID { return index.ChildSemiJoinPostings(n, sAncs, sDescs) },
			func() []scheme.ID { return index.ChildSemiJoin(n, bAncs, bDescs) }},
	}
	for _, tc := range semis {
		t.Run(tc.name, func(t *testing.T) {
			fast := tc.fast()
			slow := tc.slow()
			if len(fast) != len(slow) {
				t.Fatalf("fast %d ids, generic %d", len(fast), len(slow))
			}
			for i := range fast {
				if fast[i] != slow[i].(core.ID) {
					t.Fatalf("id %d: fast %v generic %v", i, fast[i], slow[i])
				}
			}
		})
	}
	t.Run("PathQuery", func(t *testing.T) {
		fast := ix.PathQueryRUID("section", "section", "title")
		slow := ix.PathQuery("section", "section", "title")
		if len(fast) != len(slow) {
			t.Fatalf("fast %d ids, generic %d", len(fast), len(slow))
		}
		for i := range fast {
			if fast[i] != slow[i].(core.ID) {
				t.Fatalf("id %d differs", i)
			}
		}
	})
}

// TestIDsReturnsCopy pins the public-API contract fixed in this PR: IDs
// hands back a fresh slice, so a caller scribbling over it cannot corrupt
// the index postings.
func TestIDsReturnsCopy(t *testing.T) {
	_, ix := buildRUIDIndex(t)
	got := ix.IDs("title")
	if len(got) == 0 {
		t.Fatal("no title postings")
	}
	want := got[0]
	got[0] = core.ID{Global: 999, Local: 999}
	again := ix.IDs("title")
	if again[0].(core.ID) != want.(core.ID) {
		t.Fatalf("mutating IDs() result corrupted the index: %v", again[0])
	}
	// Same contract for the generic representation (prepost-style schemes
	// are exercised in index_test.go; here a second ruid call suffices to
	// show the copies are independent).
	if &got[0] == &again[0] {
		t.Fatal("IDs returned the same backing array twice")
	}
}
