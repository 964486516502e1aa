package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

func buildRUID(t *testing.T, doc *xmltree.Node, budget int) *core.Numbering {
	t.Helper()
	n, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{
		MaxAreaNodes: budget, AdjustFanout: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNodeStoreLoadAndGet(t *testing.T) {
	doc := xmltree.XMark(1, 9)
	n := buildRUID(t, doc, 24)
	st := NewNodeStore(64)
	root := doc.DocumentElement()
	if err := st.Load(root, scheme.NodeKey(scheme.RUID{Num: n}), false); err != nil {
		t.Fatal(err)
	}
	want := xmltree.CountNodes(root)
	if st.Len() != want {
		t.Fatalf("stored %d rows, want %d", st.Len(), want)
	}
	for _, x := range root.Nodes() {
		id, _ := n.RUID(x)
		r, ok, err := st.Get(id.Key())
		if err != nil || !ok {
			t.Fatalf("Get(%v): ok=%v err=%v", id, ok, err)
		}
		if r.Name != x.Name || r.Kind != uint8(x.Kind) {
			t.Fatalf("row mismatch for %s: %+v", x.Path(), r)
		}
	}
	if _, err := st.tree.Height(); err != nil {
		t.Fatal(err)
	}
}

// TestClusteredScanIsAreaScan: scanning a (global, local) key range visits
// exactly the rows of one UID-local area — the paper's reason for the
// (global, local) sort order.
func TestClusteredScanIsAreaScan(t *testing.T) {
	doc := xmltree.Balanced(3, 5)
	n := buildRUID(t, doc, 16)
	st := NewNodeStore(64)
	root := doc.DocumentElement()
	if err := st.Load(root, scheme.NodeKey(scheme.RUID{Num: n}), false); err != nil {
		t.Fatal(err)
	}
	// Count per-area rows via ground truth. A node's row is keyed by its
	// full identifier, so an area root's row sorts under its own global.
	perArea := map[int64]int{}
	for _, x := range root.Nodes() {
		id, _ := n.RUID(x)
		perArea[id.Global]++
	}
	for _, row := range n.K() {
		g := row.Global
		lo := core.ID{Global: g, Local: 0, Root: false}.Key()
		hi := core.ID{Global: g + 1, Local: 0, Root: false}.Key()
		count := 0
		err := st.ScanRange(lo, hi, func(k []byte, _ Record) bool {
			id, ok := core.DecodeKey(k)
			if !ok || id.Global != g {
				t.Fatalf("scan of area %d yielded key of area %v", g, id)
			}
			count++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != perArea[g] {
			t.Fatalf("area %d: scanned %d rows, want %d", g, count, perArea[g])
		}
	}
}

// TestParentLookupNeedsNoTreeIO: computing a parent identifier is pure
// arithmetic (zero I/O); only fetching the parent's record costs reads.
func TestParentLookupNeedsNoTreeIO(t *testing.T) {
	doc := xmltree.Recursive(2, 7)
	n := buildRUID(t, doc, 32)
	st := NewNodeStore(256)
	root := doc.DocumentElement()
	if err := st.Load(root, scheme.NodeKey(scheme.RUID{Num: n}), false); err != nil {
		t.Fatal(err)
	}
	deep := root
	best := 0
	root.Walk(func(x *xmltree.Node) bool {
		if d := x.Depth(); d > best {
			best, deep = d, x
		}
		return true
	})
	id, _ := n.RUID(deep)
	st.ResetStats()
	// Climb to the root by identifier arithmetic alone.
	hops := 0
	for cur := id; ; hops++ {
		p, ok, err := n.RParent(cur)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		cur = p
	}
	if hops == 0 {
		t.Fatalf("expected a deep node")
	}
	if got := st.Stats(); got.Reads != 0 && got.CacheHits != 0 {
		t.Fatalf("ancestor climb touched storage: %v", got)
	}
}
