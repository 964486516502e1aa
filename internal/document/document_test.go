package document_test

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/xmltree"
)

const librarySrc = `<library>
  <shelf floor="1">
    <book><title>One</title><author>A</author></book>
    <book><title>Two</title><author>B</author><author>C</author></book>
  </shelf>
  <shelf floor="2">
    <book><title>Three</title><author>D</author></book>
  </shelf>
</library>`

// oracleQuery evaluates q with the pointer-navigation engine over a clone of
// the snapshot's tree — a published tree carries no Parent to climb — and
// returns the sorted result paths.
func oracleQuery(t *testing.T, snap *document.Snapshot, q string) []string {
	t.Helper()
	want, err := oracleOnTree(snap.Tree().Clone(), q)
	if err != nil {
		t.Fatalf("oracle %q: %v", q, err)
	}
	return strings.Split(want, "|")
}

// sortedPaths returns the sorted paths of nodes of snap's tree as snap holds
// them (Snapshot.Path).
func sortedPaths(snap *document.Snapshot, nodes []*xmltree.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = snap.Path(n)
	}
	sort.Strings(out)
	return out
}

func TestOpenAndQuery(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"/library/shelf/book/title",
		"//book//author",
		"//book[author]/title",
		"//shelf[@floor='2']/book/title",
		"//title/text()",
	}
	snap := d.Snapshot()
	for _, q := range queries {
		got, _, err := d.Query(q)
		if err != nil {
			t.Fatalf("Query(%q): %v", q, err)
		}
		want := oracleQuery(t, snap, q)
		if gotP := sortedPaths(snap, got); strings.Join(gotP, "|") != strings.Join(want, "|") {
			t.Errorf("Query(%q) = %v, want %v", q, gotP, want)
		}
	}
	st := d.Stats()
	if st.Epoch != 1 || st.Nodes == 0 || st.Areas == 0 || st.Names == 0 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{
		Partition: coreSmallPartition(),
	})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Snapshot()
	beforeTitles, _, err := before.Query("//book/title")
	if err != nil {
		t.Fatal(err)
	}

	book := xmltree.NewElement("book")
	title := xmltree.NewElement("title")
	title.AppendChild(xmltree.NewText("Four"))
	book.AppendChild(title)
	st, err := d.Insert("//shelf[@floor='1']", 0, book)
	if err != nil {
		t.Fatal(err)
	}
	_ = st

	after := d.Snapshot()
	if after.Epoch() <= before.Epoch() {
		t.Fatalf("epoch did not advance: %d -> %d", before.Epoch(), after.Epoch())
	}
	// The pinned snapshot still answers from the pre-update document.
	again, _, err := before.Query("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(beforeTitles) {
		t.Fatalf("pinned snapshot changed: %d titles, was %d", len(again), len(beforeTitles))
	}
	afterTitles, _, err := after.Query("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	if len(afterTitles) != len(beforeTitles)+1 {
		t.Fatalf("new snapshot has %d titles, want %d", len(afterTitles), len(beforeTitles)+1)
	}

	// Delete the inserted book again; a third epoch appears.
	if _, err := d.Delete("//shelf[@floor='1']", 0); err != nil {
		t.Fatal(err)
	}
	final, _, err := d.Query("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != len(beforeTitles) {
		t.Fatalf("after delete: %d titles, want %d", len(final), len(beforeTitles))
	}
	if d.Snapshot().Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", d.Snapshot().Epoch())
	}
}

// TestWritePathErrors pins the addressing contract of Insert/Delete.
func TestWritePathErrors(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert("//nosuch", 0, xmltree.NewElement("x")); err == nil {
		t.Error("Insert under missing path succeeded")
	}
	if _, err := d.Insert("//book[", 0, xmltree.NewElement("x")); err == nil {
		t.Error("Insert with bad path succeeded")
	}
	if _, err := d.Delete("//shelf", 99); err == nil {
		t.Error("Delete out of range succeeded")
	}
	if d.Snapshot().Epoch() != 1 {
		t.Errorf("failed writes published epochs: %d", d.Snapshot().Epoch())
	}
}

// TestIdentifierStabilityAcrossEpochs checks that an update relabels only
// the affected area: a node far from the update point keeps its identifier
// in the next epoch (the paper's §3.2 claim, surfaced through the facade).
func TestIdentifierStabilityAcrossEpochs(t *testing.T) {
	d, err := document.FromTree(xmltree.Recursive(2, 5), document.Options{
		Partition: coreSmallPartition(),
	})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Snapshot()
	// Observe the first title; update a subtree that follows it, so the
	// observed node is outside the re-enumerated area.
	titles, _, err := before.Query("//title")
	if err != nil || len(titles) == 0 {
		t.Fatalf("titles: %v (%d)", err, len(titles))
	}
	firstPath := before.Path(titles[0])
	idBefore, ok := before.Numbering().RUID(titles[0])
	if !ok {
		t.Fatal("first title unnumbered")
	}

	if _, err := d.Insert("/book/section/section[2]", 0, xmltree.NewElement("inserted")); err != nil {
		t.Fatal(err)
	}
	after := d.Snapshot()
	var match *xmltree.Node
	after.Tree().Walk(func(x *xmltree.Node) bool {
		if after.Path(x) == firstPath {
			match = x
		}
		return true
	})
	if match == nil {
		t.Fatalf("node %s missing after update", firstPath)
	}
	idAfter, ok := after.Numbering().RUID(match)
	if !ok {
		t.Fatal("first title unnumbered after update")
	}
	if idBefore != idAfter {
		t.Errorf("identifier of %s changed across epochs: %v -> %v", firstPath, idBefore, idAfter)
	}
}

// TestInsertCloneOfEpochNode: a subtree cloned out of a published epoch
// arrives carrying that epoch's labels. The document must number it afresh:
// every query then agrees with the pointer-navigation oracle, the pinned
// epoch the clone came from still answers as before, and each node of the
// new epoch resolves from its own label.
func TestInsertCloneOfEpochNode(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{Partition: coreSmallPartition()})
	if err != nil {
		t.Fatal(err)
	}
	pinned := d.Snapshot()
	shelves, _, err := pinned.Query("/library/shelf")
	if err != nil || len(shelves) != 2 {
		t.Fatalf("shelves: %v (%d)", err, len(shelves))
	}
	if _, err := d.Insert("/library/shelf[2]", 1, shelves[0].Clone()); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"//book/title",
		"/library/shelf[2]/shelf/book[2]/author",
		"//shelf//shelf/book[1]/following-sibling::book",
		"//author/ancestor::shelf",
		"//shelf[@floor='1']/book/title",
	}
	for _, snap := range []*document.Snapshot{pinned, d.Snapshot()} {
		for _, q := range queries {
			got, _, err := snap.Query(q)
			if err != nil {
				t.Fatalf("Query(%q): %v", q, err)
			}
			want := oracleQuery(t, snap, q)
			if gotP := sortedPaths(snap, got); strings.Join(gotP, "|") != strings.Join(want, "|") {
				t.Errorf("epoch %d: Query(%q) = %v, want %v", snap.Epoch(), q, gotP, want)
			}
		}
		num := snap.Numbering()
		seen := map[core.ID]bool{}
		snap.Tree().DocumentElement().Walk(func(x *xmltree.Node) bool {
			id, ok := num.RUID(x)
			if back, found := num.NodeOfID(id); !ok || seen[id] || !found || back != x {
				t.Fatalf("epoch %d: %s carries %v (ok=%v, repeated=%v), which resolves to %v",
					snap.Epoch(), snap.Path(x), id, ok, seen[id], back)
			}
			seen[id] = true
			return true
		})
		if len(seen) != num.Size() {
			t.Errorf("epoch %d: %d labelled nodes, numbering counts %d", snap.Epoch(), len(seen), num.Size())
		}
	}
}

// TestInsertNodeOfEpoch: a node an epoch holds, handed straight back to
// Insert, goes in as a copy. The epochs it came from, the current one and a
// pinned older one, keep their serialization and every stamp, and the new
// epoch numbers the copies afresh.
func TestInsertNodeOfEpoch(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{Partition: coreSmallPartition()})
	if err != nil {
		t.Fatal(err)
	}
	one := func(s *document.Snapshot, q string) *xmltree.Node {
		t.Helper()
		res, _, err := s.Query(q)
		if err != nil || len(res) != 1 {
			t.Fatalf("epoch %d: %q: %d nodes, err %v", s.Epoch(), q, len(res), err)
		}
		return res[0]
	}
	type state struct {
		xml    string
		stamps []xmltree.NodeNum
	}
	read := func(s *document.Snapshot) state {
		st := state{xml: xmltree.Serialize(s.Tree())}
		s.Tree().WalkFull(func(x *xmltree.Node) bool {
			st.stamps = append(st.stamps, x.Num)
			return true
		})
		return st
	}
	pinned := d.Snapshot()
	oldBook := one(pinned, "/library/shelf[1]/book[1]")
	if _, err := d.Insert("/library/shelf[2]", 0, newBook(1)); err != nil {
		t.Fatal(err)
	}
	current := d.Snapshot()
	curBook := one(current, "/library/shelf[1]/book[2]")
	epochs := []*document.Snapshot{pinned, current}
	was := []state{read(pinned), read(current)}

	if _, err := d.Insert("/library/shelf[2]", 1, curBook); err != nil {
		t.Fatalf("insert a node of the current epoch: %v", err)
	}
	if _, err := d.Insert("/library/shelf[1]", 0, oldBook); err != nil {
		t.Fatalf("insert a node of a pinned epoch: %v", err)
	}
	for i, s := range epochs {
		if now := read(s); now.xml != was[i].xml || !slices.Equal(now.stamps, was[i].stamps) {
			t.Errorf("epoch %d changed under an insert of its own node:\nbefore %s\nafter  %s", s.Epoch(), was[i].xml, now.xml)
		}
	}
	last := d.Snapshot()
	if got := one(last, "/library/shelf[1]/book[1]"); got == oldBook || xmltree.Serialize(got) != xmltree.Serialize(oldBook) {
		t.Errorf("shelf 1 holds %s, want a copy of the pinned epoch's %s", xmltree.Serialize(got), xmltree.Serialize(oldBook))
	}
	if got := one(last, "/library/shelf[2]/book[2]"); got == curBook || xmltree.Serialize(got) != xmltree.Serialize(curBook) {
		t.Errorf("shelf 2 holds %s, want a copy of the current epoch's %s", xmltree.Serialize(got), xmltree.Serialize(curBook))
	}
	num := last.Numbering()
	last.Tree().DocumentElement().Walk(func(x *xmltree.Node) bool {
		if id, ok := num.RUID(x); !ok {
			t.Errorf("%s is unnumbered", last.Path(x))
		} else if back, _ := num.NodeOfID(id); back != x {
			t.Errorf("%s carries %v, which resolves elsewhere", last.Path(x), id)
		}
		return true
	})
}

func coreSmallPartition() core.PartitionConfig {
	return core.PartitionConfig{MaxAreaNodes: 8, AdjustFanout: true}
}
