package document_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// saveBytes serializes a snapshot's numbering for byte-exact comparison.
func saveBytes(t *testing.T, s interface {
	Numbering() *core.Numbering
}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Numbering().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestFailedWriteLeavesEpochUntouched is the headline atomicity
// regression: with 1-bit local indices a second child under b overflows
// its area, the overflow lands on an area root so healing bails, and the
// failed Insert must leave the document exactly as published — same
// snapshot pointer, same epoch, same serialized tree, same numbering
// bytes — and the document must keep working afterwards.
func TestFailedWriteLeavesEpochUntouched(t *testing.T) {
	doc, err := xmltree.ParseString("<a><b><c/></b></a>")
	if err != nil {
		t.Fatal(err)
	}
	d, err := document.FromTree(doc, document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 1, MaxLocalBits: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s1 := d.Snapshot()
	xml1 := xmltree.Serialize(s1.Tree())
	num1 := saveBytes(t, s1)

	orphan := xmltree.NewElement("d")
	if _, err := d.Insert("/a/b", 1, orphan); !errors.Is(err, core.ErrOverflow) {
		t.Fatalf("Insert err = %v, want ErrOverflow", err)
	}
	if orphan.Parent != nil {
		t.Fatal("failed insert kept ownership of the child")
	}
	s2 := d.Snapshot()
	if s2 != s1 {
		t.Fatalf("failed insert published an epoch: %d → %d", s1.Epoch(), s2.Epoch())
	}
	if got := xmltree.Serialize(s2.Tree()); got != xml1 {
		t.Fatalf("tree changed:\nbefore %s\nafter  %s", xml1, got)
	}
	if !bytes.Equal(saveBytes(t, s2), num1) {
		t.Fatal("numbering bytes changed after failed insert")
	}
	if st := d.Stats(); st.Epoch != 1 {
		t.Fatalf("epoch counter %d, want 1", st.Epoch)
	}

	// The failed write must not wedge the writer: a legal delete proceeds
	// and publishes the next epoch.
	if _, err := d.Delete("/a/b", 0); err != nil {
		t.Fatal(err)
	}
	s3 := d.Snapshot()
	if s3.Epoch() != s1.Epoch()+1 {
		t.Fatalf("epoch %d after delete, want %d", s3.Epoch(), s1.Epoch()+1)
	}
	if got := xmltree.Serialize(s3.Tree()); got != "<a><b/></a>" {
		t.Fatalf("tree after delete: %s", got)
	}
	// The pinned pre-failure snapshot is still intact.
	if got := xmltree.Serialize(s1.Tree()); got != xml1 {
		t.Fatalf("old epoch mutated by later write: %s", got)
	}
}

// TestEpochStructuralSharing pins the tentpole property: an area-confined
// write publishes an epoch that shares everything it did not write with the
// previous epoch by pointer, while the update parent, the relabeled members
// of its area and the root spine are fresh copies.
func TestEpochStructuralSharing(t *testing.T) {
	// A tight area budget splits each two-node branch (b2+b2x, a2+a2x, …)
	// into its own area, so an insert under b2 dirties exactly that area
	// and the root spine (shelfb, lib) while both shelves' other branches
	// stay untouched.
	src := "<lib><shelfa><a1><a1x/></a1><a2><a2x/></a2><a3><a3x/></a3></shelfa>" +
		"<shelfb><b1><b1x/></b1><b2><b2x/></b2><b3><b3x/></b3></shelfb></lib>"
	d, err := document.OpenString(src, document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s1 := d.Snapshot()
	if s1.Numbering().AreaCount() < 3 {
		t.Fatalf("fixture regressed: %d areas, need ≥3 for sharing to be observable",
			s1.Numbering().AreaCount())
	}

	one := func(s *document.Snapshot, q string) *xmltree.Node {
		t.Helper()
		res, _, err := s.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if len(res) != 1 {
			t.Fatalf("%q: %d results, want 1", q, len(res))
		}
		return res[0]
	}

	st, err := d.Insert("/lib/shelfb/b2", 1, xmltree.NewElement("b2y"))
	if err != nil {
		t.Fatal(err)
	}
	if st.FullRebuild {
		t.Fatal("fixture regressed: insert was not area-confined")
	}
	s2 := d.Snapshot()
	if s2 == s1 || s2.Epoch() != s1.Epoch()+1 {
		t.Fatalf("epochs %d → %d", s1.Epoch(), s2.Epoch())
	}

	// Untouched subtrees: shared by pointer across the epochs — b2x too, the
	// left sibling of the insertion point, whose label and children stand.
	for _, q := range []string{"//shelfa", "//a1", "//a2x", "//b1", "//b1x", "//b3x", "//b2x"} {
		if one(s1, q) != one(s2, q) {
			t.Errorf("untouched node %s was copied between epochs", q)
		}
	}
	// Update parent and spine: fresh copies.
	for _, q := range []string{"//b2", "//shelfb"} {
		if one(s1, q) == one(s2, q) {
			t.Errorf("touched node %s shared between epochs", q)
		}
	}
	if s1.Tree() == s2.Tree() {
		t.Error("document root shared between epochs")
	}
	// The old epoch answers as before; the new one sees the insert.
	if res, _, _ := s1.Query("//b2y"); len(res) != 0 {
		t.Errorf("old epoch sees new node: %d results", len(res))
	}
	one(s2, "//b2y")
	if got := xmltree.Serialize(s1.Tree()); got != src {
		t.Fatalf("old epoch tree mutated:\n%s", got)
	}

	// A second confined write on the other shelf: now the b-side branch is
	// the untouched one and is shared between s2 and s3.
	if _, err := d.Insert("/lib/shelfa/a2", 0, xmltree.NewElement("a2y")); err != nil {
		t.Fatal(err)
	}
	s3 := d.Snapshot()
	if one(s2, "//b2y") != one(s3, "//b2y") {
		t.Error("untouched b-side copied by a-side write")
	}
	if one(s2, "//a2x") == one(s3, "//a2x") {
		t.Error("a2x, relabeled by the insert before it, shared after the write")
	}
	// All three epochs remain individually consistent.
	for i, want := range []string{"", "<b2y/>", "<a2y/>"} {
		s := []*document.Snapshot{s1, s2, s3}[i]
		got := xmltree.Serialize(s.Tree())
		if want != "" && !strings.Contains(got, want) {
			t.Errorf("epoch %d: missing %s in %s", i, want, got)
		}
		res, _, err := s.Query("//shelfa//*")
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		if wantN := []int{6, 6, 7}[i]; len(res) != wantN {
			t.Errorf("epoch %d: %d shelfa descendants, want %d", i, len(res), wantN)
		}
	}

	// Under a wide node the spine copy shares the child list too: the new
	// open_auctions re-points one of its 300 children at the copy of the
	// auction written under, which costs it the 64-entry chunk holding that
	// entry and none of the others.
	w, err := document.FromTree(xmltree.XMark(50, 1), document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := one(w.Snapshot(), "/site/open_auctions")
	if _, err := w.Insert("/site/open_auctions/open_auction[10]", 0, xmltree.NewElement("bidder")); err != nil {
		t.Fatal(err)
	}
	after := one(w.Snapshot(), "/site/open_auctions")
	if after == before || after.NumChildren() != before.NumChildren() {
		t.Fatalf("open_auctions shared between the epochs, or its width changed: %d, %d children", before.NumChildren(), after.NumChildren())
	}
	if shared, of := after.Seq().SharedChunks(before.Seq()); of < 4 || shared != of-1 {
		t.Errorf("the new open_auctions shares %d of its %d child chunks with the previous epoch's, want all but one of at least 4", shared, of)
	}
	for i := 0; i < after.NumChildren(); i++ {
		if (after.Child(i) == before.Child(i)) != (i != 9) {
			t.Errorf("open_auction %d: shared with the previous epoch = %v", i+1, i == 9)
		}
	}
}

// TestEpochNumberingSharing checks the numbering side of structural
// sharing: identifiers resolved on an old epoch stay valid and stable
// after later writes, and each epoch's numbering answers for exactly its
// own tree.
func TestEpochNumberingSharing(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{
		Partition: coreSmallPartition(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s1 := d.Snapshot()
	res, _, err := s1.Query("//title")
	if err != nil {
		t.Fatal(err)
	}
	ids1 := make(map[*xmltree.Node]core.ID, len(res))
	for _, x := range res {
		id, ok := s1.Numbering().RUID(x)
		if !ok {
			t.Fatalf("unnumbered node %s", x.Path())
		}
		ids1[x] = id
	}

	for i := 0; i < 5; i++ {
		if _, err := d.Insert("//shelf[@floor='2']", 0, newBook(100+i)); err != nil {
			t.Fatal(err)
		}
	}

	// The pinned epoch still resolves every identifier identically.
	for x, id := range ids1 {
		got, ok := s1.Numbering().RUID(x)
		if !ok || got != id {
			t.Fatalf("pinned epoch id drifted for %s: %v → %v (ok=%v)", x.Path(), id, got, ok)
		}
		back, ok := s1.Numbering().NodeOfID(id)
		if !ok || back != x {
			t.Fatalf("pinned epoch reverse lookup broke for %v", id)
		}
	}
}

// TestEpochNumberingsAnswerPositionalPaths is the differential case on
// epoch numberings — table-K rows written by forks, not by Build: 200
// seeded insert/delete pairs through the Document, and after each pair the
// snapshot's scheme engine against the pointer engine on positional paths
// that cross the touched areas. Forward paths are compared node for node on
// the snapshot's own tree; paths that climb are compared by label on a full
// clone, because a published tree carries no Parent pointers.
func TestEpochNumberingsAnswerPositionalPaths(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := document.FromTree(xmltree.XMark(2, 5), document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 16, AdjustFanout: true},
		Observe:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	count := func(q string) int {
		res, _, err := d.Snapshot().QueryMetered(q, nil, nil, false)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return res.Len()
	}
	labels := func(nodes []*xmltree.Node) string {
		var sb strings.Builder
		for _, n := range nodes {
			num, root := n.Num()
			fmt.Fprintf(&sb, "%s%v%v ", n.Name, num, root)
		}
		return sb.String()
	}
	auctions := count("/site/open_auctions/open_auction")
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		grown := fmt.Sprintf("/site/open_auctions/open_auction[%d]", 1+rng.Intn(auctions))
		bidder, err := xmltree.ParseFragment(fmt.Sprintf("<bidder><increase>%d</increase></bidder>", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Insert(grown, rng.Intn(count(grown+"/*")+1), bidder); err != nil {
			t.Fatalf("pair %d: insert under %s: %v", i, grown, err)
		}
		shrunk := fmt.Sprintf("/site/open_auctions/open_auction[%d]", 1+rng.Intn(auctions))
		if kids := count(shrunk + "/*"); kids > 0 {
			if _, err := d.Delete(shrunk, rng.Intn(kids)); err != nil {
				t.Fatalf("pair %d: delete under %s: %v", i, shrunk, err)
			}
		}

		snap := d.Snapshot()
		clone := snap.Tree().Clone()
		scheme := xpath.NewEngine(snap.Tree(), xpath.SchemeNavigator{S: snap.Numbering()})
		pointer := xpath.NewEngine(snap.Tree(), xpath.PointerNavigator{})
		climbing := xpath.NewEngine(clone, xpath.PointerNavigator{})
		for _, q := range []string{
			grown + "/bidder[1]/increase", grown + "/bidder[last()]", grown + "/*[position() < 3]",
			shrunk + "/*[2]", shrunk + "/bidder[2]/increase/text()",
			"//open_auction/bidder[2]", "//open_auction/*[last()][increase]",
			grown + "/bidder[1] | " + shrunk + "/bidder[1]",
		} {
			got, err := scheme.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := pointer.Query(q)
			if !slices.Equal(got, want) {
				t.Fatalf("pair %d: %q: scheme engine %d nodes, pointer engine %d, or in another order", i, q, len(got), len(want))
			}
		}
		for _, q := range []string{
			grown + "/bidder[last()]/preceding-sibling::*[1]", grown + "/bidder[1]/increase/ancestor::*",
			shrunk + "/*[1]/following-sibling::*[2]", shrunk + "/bidder[1]/preceding::bidder[1]",
			"//bidder[1]/..", "//increase/ancestor::*[2]",
		} {
			got, err := scheme.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := climbing.Query(q)
			if labels(got) != labels(want) {
				t.Fatalf("pair %d: %q:\nscheme engine  %s\npointer engine %s", i, q, labels(got), labels(want))
			}
		}
	}
	if incr := reg.Counter("doc.publish_incremental").Value(); incr < 300 {
		t.Fatalf("only %d of the publications were incremental; the case is about rows written by forks", incr)
	}
}

// TestPinnedEpochRowsNeverWritten pins an epoch, pushes 200 area-confined
// writes through forks behind it, and checks the pinned epoch's table K
// again: later epochs share its rows' slot arrays, so a write into one —
// rebinding a slot to a fresh node copy without copying the array first —
// would make the pinned numbering resolve an identifier to a node of another
// epoch, or walk children its tree does not have.
func TestPinnedEpochRowsNeverWritten(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := document.FromTree(xmltree.XMark(12, 5), document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 16, AdjustFanout: true},
		Observe:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned := d.Snapshot()
	num := pinned.Numbering()
	check := func(when string) (nodes int) {
		t.Helper()
		pinned.Tree().DocumentElement().Walk(func(x *xmltree.Node) bool {
			nodes++
			id, ok := num.RUID(x)
			if !ok {
				t.Fatalf("%s: %s carries no identifier", when, x.Path())
			}
			if back, ok := num.NodeOfID(id); !ok || back != x {
				t.Fatalf("%s: %v no longer resolves to the pinned epoch's %s", when, id, x.Path())
			}
			var kids []*xmltree.Node
			num.VisitChildren(x, func(c *xmltree.Node) bool {
				kids = append(kids, c)
				return true
			})
			if !slices.Equal(kids, x.AppendChildren(nil)) {
				t.Fatalf("%s: the slots below %s hold %d nodes, the pinned tree has %d children there, or others",
					when, x.Path(), len(kids), x.NumChildren())
			}
			return true
		})
		return nodes
	}
	before := check("before the writes")

	count := func(q string) int {
		res, _, err := d.Snapshot().QueryMetered(q, nil, nil, false)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return res.Len()
	}
	auctions := count("/site/open_auctions/open_auction")
	if auctions <= 64 {
		t.Fatalf("%d open_auctions: the fixture no longer reaches a chunked child list and row", auctions)
	}
	rng := rand.New(rand.NewSource(22))
	writes := 0
	for i := 0; writes < 200; i++ {
		grown := fmt.Sprintf("/site/open_auctions/open_auction[%d]", 1+rng.Intn(auctions))
		bidder, err := xmltree.ParseFragment(fmt.Sprintf("<bidder><increase>%d</increase></bidder>", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Insert(grown, rng.Intn(count(grown+"/*")+1), bidder); err != nil {
			t.Fatalf("insert under %s: %v", grown, err)
		}
		writes++
		shrunk := fmt.Sprintf("/site/open_auctions/open_auction[%d]", 1+rng.Intn(auctions))
		if kids := count(shrunk + "/*"); kids > 0 {
			if _, err := d.Delete(shrunk, rng.Intn(kids)); err != nil {
				t.Fatalf("delete under %s: %v", shrunk, err)
			}
			writes++
		}
	}
	if incr := reg.Counter("doc.publish_incremental").Value(); writes < 200 || incr < uint64(writes) {
		t.Fatalf("%d writes, %d incremental publications; the case is about 200 rows the forks share", writes, incr)
	}
	if got := d.Snapshot().Epoch(); got != pinned.Epoch()+uint64(writes) {
		t.Fatalf("epoch %d after %d writes on epoch %d", got, writes, pinned.Epoch())
	}
	if after := check("after the writes"); after != before {
		t.Fatalf("the pinned tree has %d nodes, had %d", after, before)
	}
}

// TestPinnedEpochsSurviveForkedWrites is "nothing published is ever written"
// from the outside: 300 seeded writes (inserts, deletes, and local indices
// tight enough that a few of the inserts overflow and heal) with the first,
// the middle and the last epoch pinned as they are published. Every write is mirrored
// on a plain pointer tree, the serial oracle, and at the end each pinned
// epoch must still serialize to what the oracle read when it was current and
// resolve its own identifiers to its own nodes. Between consecutive epochs,
// every node the write did not have to copy is shared by pointer: a fresh
// node is a member or boundary leaf of the update area, or on the spine above
// the update parent — so a write costs at most the area plus the spine.
func TestPinnedEpochsSurviveForkedWrites(t *testing.T) {
	const writes = 300
	d, err := document.FromTree(xmltree.XMark(12, 5), document.Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 16, AdjustFanout: true, MaxLocalBits: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := xmltree.XMark(12, 5)
	oracleOne := func(path string) *xmltree.Node {
		t.Helper()
		res, err := xpath.NewEngine(oracle, xpath.PointerNavigator{}).Query(path)
		if err != nil || len(res) == 0 {
			t.Fatalf("oracle: %q: %d nodes, err %v", path, len(res), err)
		}
		return res[0]
	}
	type pin struct {
		snap *document.Snapshot
		xml  string
	}
	pins := []pin{{d.Snapshot(), xmltree.Serialize(oracle)}}

	// open_auctions is wider than one chunk of its child list (xmltree.Seq) and
	// of the row its children's boundary slots sit in, so every spine copy
	// re-points an entry of a chunk the previous epoch shares.
	if wide := oracleOne("/site/open_auctions").NumChildren(); wide <= 64 {
		t.Fatalf("open_auctions has %d children: the fixture no longer reaches a chunked list", wide)
	}
	rng := rand.New(rand.NewSource(23))
	heals := 0
	for i := 0; i < writes; i++ {
		path := fmt.Sprintf("/site/open_auctions/open_auction[%d]", 1+rng.Intn(3)) // few targets, so they grow until one overflows
		prev := d.Snapshot()
		res, _, err := prev.Query(path)
		if err != nil || len(res) != 1 {
			t.Fatalf("write %d: %q: %d nodes, err %v", i, path, len(res), err)
		}
		parent, twin := res[0], oracleOne(path)
		pid, _ := prev.Numbering().RUID(parent)

		var st core.UpdateStats
		if rng.Intn(3) > 0 || twin.NumChildren() == 0 {
			pos := rng.Intn(twin.NumChildren() + 1)
			src := fmt.Sprintf("<bidder><increase>%d</increase></bidder>", i)
			sub, _ := xmltree.ParseFragment(src)
			osub, _ := xmltree.ParseFragment(src)
			st, err = d.Insert(path, pos, sub)
			twin.InsertChildAt(pos, osub)
		} else {
			pos := rng.Intn(twin.NumChildren())
			st, err = d.Delete(path, pos)
			twin.RemoveChild(pos)
		}
		if err != nil {
			t.Fatalf("write %d under %s: %v", i, path, err)
		}
		next := d.Snapshot()
		if got, want := xmltree.Serialize(next.Tree()), xmltree.Serialize(oracle); got != want {
			t.Fatalf("write %d: the epoch differs from the serial oracle", i)
		}
		if i == writes/2 || i == writes-1 {
			pins = append(pins, pin{next, xmltree.Serialize(oracle)})
		}
		if st.FullRebuild {
			heals++ // a heal renumbers the whole tree, on a clone of all of it
			continue
		}

		// What the write copied.
		old := make(map[*xmltree.Node]bool)
		prev.Tree().Walk(func(x *xmltree.Node) bool { old[x] = true; return true })
		num, g := next.Numbering(), pid.Global
		area, fresh := 0, 0
		next.Tree().Walk(func(x *xmltree.Node) bool {
			id, numbered := num.RUID(x)
			inArea := numbered && (id.Global == g || id.Root && (id.Global-2)/num.Kappa()+1 == g)
			if inArea {
				area++
			}
			if !old[x] {
				fresh++
				if numbered && !inArea && id != pid && !num.IsAncestorID(id, pid) {
					t.Fatalf("write %d under %s: %s%v is a fresh copy, outside area %d and off the spine", i, path, x.Name, id, g)
				}
			}
			return true
		})
		spine := len(num.AppendAncestors(nil, pid)) + 2 // the parent and the document node
		if fresh == 0 || fresh > area+spine {
			t.Fatalf("write %d under %s: %d fresh nodes; area %d holds %d, the spine %d", i, path, fresh, g, area, spine)
		}
	}
	if heals == 0 {
		t.Fatal("no write healed an overflow: the own-everything path went untested")
	}
	t.Logf("%d writes, %d of them healed an overflow", writes, heals)

	for _, p := range pins {
		if got := xmltree.Serialize(p.snap.Tree()); got != p.xml {
			t.Fatalf("pinned epoch %d no longer reads as the oracle did", p.snap.Epoch())
		}
		num := p.snap.Numbering()
		p.snap.Tree().DocumentElement().Walk(func(x *xmltree.Node) bool {
			id, ok := num.RUID(x)
			if back, found := num.NodeOfID(id); !ok || !found || back != x {
				t.Fatalf("pinned epoch %d: %v of %s resolves to another node", p.snap.Epoch(), id, x.Name)
			}
			return true
		})
	}
}

// TestPointQueryAllocsIndependentOfSiblings guards the one navigation path:
// each read_point template shape (bench/harness.go) through
// Snapshot.QueryMetered allocates the same small number of objects on XMark
// 20 and on XMark 100, where every sibling list is five times longer — no
// slice of an axis is built on the way to t[k].
func TestPointQueryAllocsIndependentOfSiblings(t *testing.T) {
	queries := []string{
		"/site/regions/europe/item[70]/name",
		"/site/regions/namerica/item[75]/description/parlist/listitem[1]/text",
		"/site/people/person[190]/ancestor::*",
		"/site/open_auctions/open_auction[110]/bidder[1]/increase",
	}
	allocs := func(scale int) []float64 {
		d, err := document.FromTree(xmltree.XMark(scale, 1), document.Options{})
		if err != nil {
			t.Fatal(err)
		}
		snap := d.Snapshot()
		out := make([]float64, len(queries))
		for i, q := range queries {
			if res, plan, err := snap.QueryMetered(q, nil, nil, false); err != nil || res.Len() == 0 || plan.Kind != query.NavPlan {
				t.Fatalf("XMark %d: %q: %d results by a %s plan, err %v", scale, q, res.Len(), plan.Kind, err)
			}
			out[i] = testing.AllocsPerRun(20, func() { snap.QueryMetered(q, nil, nil, false) })
		}
		return out
	}
	small, large := allocs(20), allocs(100)
	for i, q := range queries {
		// Equal, give or take the pooled objects a run happens to find (the
		// race detector empties sync.Pools at random); one materialised axis
		// would put hundreds between the two.
		if math.Abs(small[i]-large[i]) > 4 || small[i] > 80 {
			t.Errorf("%q: %v allocations on XMark 20, %v on XMark 100; want the same small number", q, small[i], large[i])
		}
	}
}
