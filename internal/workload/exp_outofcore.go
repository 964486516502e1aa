package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/prepost"
	"repro/internal/scheme"
	"repro/internal/uid"
	"repro/internal/xmltree"
)

// E17 measures Lemma 1 where it actually matters: on a document whose
// stored tables are much larger than the buffer pool. The document is a
// bibliography-shaped (DBLP-like) corpus of ~1M elements — the wide,
// shallow shape the paper's motivating scenario names — and the pool is
// capped at ~5% of the allocated pages, so anything that touches stored
// rows pages honestly, while ruid axis navigation — closed over the
// memory-resident table K — issues no reads at all.
//
// The contrast is the paper's §1 argument made mechanical:
//
//   - ruid: parent/ancestor/children identifiers come from K arithmetic
//     (RParent, Children); the stored node table is not consulted, so the
//     read counter stays at zero no matter how small the pool is.
//   - prepost: the parent identifier is not computable from a (pre, post)
//     label — the stored record carries the parent pointer, so every
//     ancestor step pays a point probe into the clustered index.
//   - uid: the parent identifier is arithmetic (i-2)/k+1, but on a wide
//     document the virtual identifier space is k^depth — astronomically
//     sparse (and past int64 on deep shapes, Observation 1) — so the
//     id→node mapping can never be a dense resident array; resolving each
//     ancestor identifier to a real stored node pages through the B-tree.

// OutOfCoreStats are the raw measurements behind E17, shared by the table
// renderer, cmd/ruidbench's io/* JSON rows, and the CI I/O smoke.
type OutOfCoreStats struct {
	Nodes      int // element count of the measured document
	Samples    int // sampled start nodes per navigation measurement
	PoolPages  int // buffer-pool bound used for the stored baselines
	TotalPages int // allocated pages of the ruid node table

	// Ancestor-chain navigation: total stored reads and steps per scheme.
	RuidNavReads    int64
	RuidNavSteps    int64
	PrepostReads    int64
	PrepostSteps    int64
	UIDReads        int64
	UIDSteps        int64
	UID64Overflowed bool // Build64 failed at this scale (Observation 1)
}

// outOfCorePool caps a pool at ~5% of total pages (minimum 4 frames).
func outOfCorePool(totalPages int) int {
	p := totalPages / 20
	if p < 4 {
		p = 4
	}
	return p
}

// MeasureOutOfCore runs the E17 measurement at the given scale. The
// document is a deterministic DBLP-shaped tree of ~`nodes` elements
// (five elements per bibliography record); `samples` start nodes are
// drawn for the navigation chains.
func MeasureOutOfCore(nodes, samples int) OutOfCoreStats {
	doc := xmltree.DBLP(nodes/5, 41)
	root := doc.DocumentElement()
	st := OutOfCoreStats{Nodes: xmltree.Measure(root).Elements, Samples: samples}

	rn := BuildRUID(doc)
	pn, err := prepost.Build(doc)
	if err != nil {
		panic(err)
	}

	// Stored node tables, loaded with a pool roomy enough that the bulk
	// load itself does not thrash, then capped at ~5% for the measurement.
	load := func(key func(*xmltree.Node) ([]byte, bool)) *NodeStore {
		t := NewNodeStore(32768)
		if err := t.Load(root, key, false); err != nil {
			panic(err)
		}
		t.Pager().Flush()
		t.Pager().SetCapacity(outOfCorePool(t.Pages()))
		t.DropCache()
		t.ResetStats()
		return t
	}
	stR := load(scheme.NodeKey(scheme.RUID{Num: rn}))
	stP := load(scheme.NodeKey(pn))
	st.TotalPages = stR.Pages()
	st.PoolPages = outOfCorePool(st.TotalPages)

	// Deterministic sample of start nodes.
	var elems []*xmltree.Node
	root.Walk(func(x *xmltree.Node) bool {
		if x.Kind == xmltree.Element {
			elems = append(elems, x)
		}
		return true
	})
	rng := rand.New(rand.NewSource(7))
	sample := make([]*xmltree.Node, samples)
	for i := range sample {
		sample[i] = elems[rng.Intn(len(elems))]
	}

	// ruid: ancestor chains and children from K arithmetic alone. Two
	// passes (warm-up + measurement) for symmetry with the baselines; K is
	// resident by construction, so the counters cannot move either way.
	for pass := 0; pass < 2; pass++ {
		before := stR.Stats()
		var steps int64
		for _, x := range sample {
			id, ok := rn.RUID(x)
			if !ok {
				panic("unnumbered sample node")
			}
			for {
				p, ok, err := rn.RParent(id)
				if err != nil {
					panic(err)
				}
				if !ok {
					break
				}
				id = p
				steps++
			}
			rn.AppendChildren(nil, id) // children of the root area node: K arithmetic too
		}
		if pass == 1 {
			st.RuidNavReads = stR.Stats().Sub(before).Reads
			st.RuidNavSteps = steps
		}
	}

	// prepost: each ancestor step reads the current node's stored record —
	// the parent pointer lives there, not in the label.
	for pass := 0; pass < 2; pass++ {
		before := stP.Stats()
		var steps int64
		for _, x := range sample {
			cur := x
			for {
				sid, ok := pn.IDOf(cur)
				if !ok {
					panic("unnumbered sample node")
				}
				pid := sid.(prepost.ID)
				if _, ok, err := stP.Get(pid.Key()); err != nil {
					panic(err)
				} else if !ok {
					panic("stored row missing")
				}
				p, ok := pn.Parent(pid)
				if !ok {
					break
				}
				cur, _ = pn.NodeOf(p)
				steps++
			}
		}
		if pass == 1 {
			st.PrepostReads = stP.Stats().Sub(before).Reads
			st.PrepostSteps = steps
		}
	}

	// uid: the identifier arithmetic is free, but the virtual identifier
	// space is k^depth — on deep shapes it overflows int64 outright
	// (Observation 1), and even when it fits, a space this sparse can
	// never back a dense resident id→node array. Either way mapping each
	// ancestor identifier back to a stored node is a B-tree probe.
	if _, err := uid.Build64(doc, 0); err != nil {
		if !errors.Is(err, uid.ErrOverflow) {
			panic(err)
		}
		st.UID64Overflowed = true
	}
	un := BuildUID(doc)
	stU := load(scheme.NodeKey(un))
	for pass := 0; pass < 2; pass++ {
		before := stU.Stats()
		var steps int64
		for _, x := range sample {
			id, ok := un.IDOf(x)
			if !ok {
				panic("unnumbered sample node")
			}
			for {
				p, ok := un.Parent(id)
				if !ok {
					break
				}
				if _, ok, err := stU.Get(p.Key()); err != nil {
					panic(err)
				} else if !ok {
					panic("stored row missing")
				}
				id = p
				steps++
			}
		}
		if pass == 1 {
			st.UIDReads = stU.Stats().Sub(before).Reads
			st.UIDSteps = steps
		}
	}

	return st
}

// E17OutOfCore renders the out-of-core experiment at the headline scale:
// a ~1M-element document with the pool capped at ~5% of its pages. The
// sample count must draw more distinct leaf pages than the pool holds
// (~1.6k frames at this scale) or the measured second pass serves the
// baselines entirely from cache and the pressure comparison is vacuous;
// 5000 random chains touch ~4.5k distinct leaves.
func E17OutOfCore() *Table {
	return e17Table(MeasureOutOfCore(1_000_000, 5000))
}

// e17Table formats one measurement as the E17 table.
func e17Table(s OutOfCoreStats) *Table {
	t := &Table{
		ID:    "E17",
		Title: "Out-of-core navigation (Lemma 1 at scale)",
		Note: fmt.Sprintf("%d-element document; pool %d of %d pages (~5%%); %d sampled ancestor chains",
			s.Nodes, s.PoolPages, s.TotalPages, s.Samples),
		Header: []string{"operation", "scheme", "steps", "stored reads", "reads/step"},
	}
	perStep := func(reads, steps int64) string {
		if steps == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", float64(reads)/float64(steps))
	}
	t.AddRow("ancestor chain + children (K arithmetic)", "ruid",
		s.RuidNavSteps, s.RuidNavReads, perStep(s.RuidNavReads, s.RuidNavSteps))
	t.AddRow("ancestor chain (stored parent pointer)", "prepost",
		s.PrepostSteps, s.PrepostReads, perStep(s.PrepostReads, s.PrepostSteps))
	uidLabel := "uid (sparse virtual ids)"
	if s.UID64Overflowed {
		uidLabel = "uid (int64 overflow -> bigint)"
	}
	t.AddRow("ancestor chain (stored id->node probe)", uidLabel,
		s.UIDSteps, s.UIDReads, perStep(s.UIDReads, s.UIDSteps))
	return t
}
