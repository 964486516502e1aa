package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/twig"
	"repro/internal/workload"
	"repro/internal/xmltree"

	// The scheme bake-off (schemeBenches) runs every registered scheme;
	// importing a scheme package registers it. ruid rides along with core.
	_ "repro/internal/ancestry"
	_ "repro/internal/nestedint"
	_ "repro/internal/prepost"
	_ "repro/internal/uid"
)

// publishFixture builds the EpochPublish benchmark document: a small hot
// spot (the update target area) next to a bulk region of eight deep 8-ary
// "section" subtrees padding the document to roughly total nodes. The bulk
// must be deep, not flat — a flat bulk turns every section into a boundary
// joint of the ROOT area, making the hot spot's own area scale with the
// document. Mirrors epochPublishFixture in the repo-root bench_test.go.
func publishFixture(total int) *xmltree.Node {
	doc := xmltree.NewDocument()
	root := xmltree.NewElement("doc")
	doc.AppendChild(root)
	hot := xmltree.NewElement("hot")
	root.AppendChild(hot)
	for i := 0; i < 4; i++ {
		hot.AppendChild(xmltree.NewElement(fmt.Sprintf("h%d", i)))
	}
	bulk := xmltree.NewElement("bulk")
	root.AppendChild(bulk)
	const chunks = 8
	for i := 0; i < chunks; i++ {
		bulk.AppendChild(publishBulkSubtree((total - 7) / chunks))
	}
	return doc
}

// publishBulkSubtree returns a "section" subtree of exactly m elements with
// fan-out at most 8 (so depth grows logarithmically in m).
func publishBulkSubtree(m int) *xmltree.Node {
	el := xmltree.NewElement("section")
	m--
	q, r := m/8, m%8
	for i := 0; i < 8; i++ {
		sz := q
		if i < r {
			sz++
		}
		if sz > 0 {
			el.AppendChild(publishBulkSubtree(sz))
		}
	}
	return el
}

// epochPublishBench returns one epoch_publish bench closure: a structural
// write through the document facade (insert + delete in the hot area) with
// incremental epoch publication. Run at two sizes an order of magnitude
// apart, the pair exposes any publication cost that scales with document
// size rather than with the touched area.
func epochPublishBench(size int) func(b *testing.B) {
	return func(b *testing.B) {
		d, err := document.FromTree(publishFixture(size), document.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Insert("/doc/hot", 0, xmltree.NewElement("hx")); err != nil {
				b.Fatal(err)
			}
			if _, err := d.Delete("/doc/hot", 0); err != nil {
				b.Fatal(err)
			}
		}
		microSink += d.Stats().Nodes
	}
}

// parallelBenches measures the frame-parallel execution layer against the
// serial one-shot joins on a ~65k-node recursive document (16383 sections
// and titles): each join family at p=1 (the Serial-mode executor: the one
// path with a single shard) and at forced 2 and 8 workers. The `serial` rows
// feed the one-shots flat slice views and the p=* rows feed the executor the
// index's block views, so serial against p=1 prices block decode and per-run
// merge seeding — properties of the view — not scheduling. Speedup is
// bounded by the machine's core count; the committed baseline records
// whatever this host measured.
func parallelBenches() []struct {
	name string
	fn   func(b *testing.B)
} {
	doc := xmltree.Recursive(2, 13)
	rn := workload.BuildRUID(doc)
	ix := index.Build(doc.DocumentElement(), rn)
	ancs, descs := index.SlicePostings(ix.RuidIDs("section")), index.SlicePostings(ix.RuidIDs("title"))
	ancsP, descsP := ix.Postings("section"), ix.Postings("title")
	pattern, err := twig.Compile("//section[title]//title")
	if err != nil {
		panic(err)
	}

	execs := []struct {
		tag string
		e   *exec.Executor
	}{
		{"p=1", exec.New(exec.Config{Mode: exec.Serial})},
		{"p=2", exec.New(exec.Config{Mode: exec.Forced, Workers: 2})},
		{"p=8", exec.New(exec.Config{Mode: exec.Forced, Workers: 8})},
	}

	var out []struct {
		name string
		fn   func(b *testing.B)
	}
	add := func(name string, fn func(b *testing.B)) {
		out = append(out, struct {
			name string
			fn   func(b *testing.B)
		}{name, fn})
	}

	add("parallel/merge_join/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(index.MergeJoinPostings(rn, ancs, descs))
		}
	})
	add("parallel/upward_join/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(index.UpwardJoinPostings(rn, ancs, descs))
		}
	})
	add("parallel/upward_semi_join/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(index.UpwardSemiJoinPostings(rn, ancs, descs))
		}
	})
	add("parallel/path_query/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(ix.PathQueryRUID("section", "section", "title"))
		}
	})
	// twig has no executor-free serial kernel; its p=1 row (Serial-mode
	// executor) is the serial reference.
	for _, ex := range execs {
		e := ex.e
		add("parallel/merge_join/"+ex.tag, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(e.MergeJoin(rn, ancsP, descsP))
			}
		})
		add("parallel/upward_join/"+ex.tag, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(e.UpwardJoin(rn, ancsP, descsP))
			}
		})
		add("parallel/upward_semi_join/"+ex.tag, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(e.UpwardSemiJoin(rn, ancsP, descsP))
			}
		})
		add("parallel/path_query/"+ex.tag, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(e.PathQuery(ix, "section", "section", "title"))
			}
		})
		add("parallel/twig/"+ex.tag, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ids, _ := twig.MatchIDsWith(pattern, ix, e)
				microSink += len(ids)
			}
		})
	}
	return out
}

// selectiveFixture builds the seek-bench document: branches deep 8-ary
// "leaf" subtrees under one root, with the middle branch's subtree root
// renamed "needle". A needle→leaf join is maximally selective — the
// ancestor side is one element confined to one branch — so the seek-based
// kernels can skip the other branches' posting blocks entirely, while the
// flat kernels still scan every leaf posting.
func selectiveFixture(total, branches int) *xmltree.Node {
	doc := xmltree.NewDocument()
	root := xmltree.NewElement("doc")
	doc.AppendChild(root)
	for i := 0; i < branches; i++ {
		sub := selectiveSubtree(total / branches)
		if i == branches/2 {
			sub.Name = "needle"
		}
		root.AppendChild(sub)
	}
	return doc
}

// selectiveSubtree returns a "leaf" subtree of exactly m elements with
// fan-out at most 8.
func selectiveSubtree(m int) *xmltree.Node {
	el := xmltree.NewElement("leaf")
	m--
	q, r := m/8, m%8
	for i := 0; i < 8; i++ {
		sz := q
		if i < r {
			sz++
		}
		if sz > 0 {
			el.AppendChild(selectiveSubtree(sz))
		}
	}
	return el
}

// postingsBenches measures the block-compressed postings layer on the
// ~50k-node selective fixture: the seek-based kernels (skip-table galloping)
// against the flat-slice oracle on the same inputs, plus the cost of full
// materialization that Postings consumers avoid.
func postingsBenches() []struct {
	name string
	fn   func(b *testing.B)
} {
	doc := selectiveFixture(50000, 64)
	rn := workload.BuildRUID(doc)
	ix := index.Build(doc.DocumentElement(), rn)
	needle, leaf := index.SlicePostings(ix.RuidIDs("needle")), index.SlicePostings(ix.RuidIDs("leaf"))
	needleP, leafP := ix.Postings("needle"), ix.Postings("leaf")

	var out []struct {
		name string
		fn   func(b *testing.B)
	}
	add := func(name string, fn func(b *testing.B)) {
		out = append(out, struct {
			name string
			fn   func(b *testing.B)
		}{name, fn})
	}

	add("postings/semi_join_selective/seek", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(index.UpwardSemiJoinPostings(rn, needleP, leafP))
		}
	})
	add("postings/semi_join_selective/flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(index.UpwardSemiJoinPostings(rn, needle, leaf))
		}
	})
	add("postings/merge_join_selective/seek", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(index.MergeJoinPostings(rn, needleP, leafP))
		}
	})
	add("postings/merge_join_selective/flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(index.MergeJoinPostings(rn, needle, leaf))
		}
	})
	add("postings/path_query_selective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(ix.PathQueryRUID("needle", "leaf"))
		}
	})
	add("postings/materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(ix.RuidIDs("leaf"))
		}
	})
	return out
}

// obsBenches measures what observation costs: the same upward semi-join
// and planner query, once on an uninstrumented executor/document (nil sinks
// — this row is the proof that observation off is free) and once with a
// registry attached (counters, histograms and block stats kept — both rows
// run the same path, so the pair prices the sinks alone). The off/on
// pairs are tracked independently by the benchdiff gate, so neither the
// zero-cost default nor the observed cost can drift silently.
func obsBenches() []struct {
	name string
	fn   func(b *testing.B)
} {
	doc := xmltree.Recursive(2, 13)
	rn := workload.BuildRUID(doc)
	ix := index.Build(doc.DocumentElement(), rn)
	ancsP, descsP := ix.Postings("section"), ix.Postings("title")

	off := exec.New(exec.Config{Mode: exec.Serial})
	on := exec.New(exec.Config{Mode: exec.Serial, Observe: obs.NewRegistry()})

	// One generated tree per document: FromTree takes ownership of its tree.
	dOff, err := document.FromTree(xmltree.Recursive(2, 9), document.Options{})
	if err != nil {
		panic(err)
	}
	dOn, err := document.FromTree(xmltree.Recursive(2, 9), document.Options{Observe: obs.NewRegistry()})
	if err != nil {
		panic(err)
	}

	var out []struct {
		name string
		fn   func(b *testing.B)
	}
	add := func(name string, fn func(b *testing.B)) {
		out = append(out, struct {
			name string
			fn   func(b *testing.B)
		}{name, fn})
	}

	add("obs/upward_semi_join/off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(off.UpwardSemiJoin(rn, ancsP, descsP))
		}
	})
	add("obs/upward_semi_join/on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(on.UpwardSemiJoin(rn, ancsP, descsP))
		}
	})
	add("obs/query/off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nodes, _, err := dOff.Query("//section//title")
			if err != nil {
				b.Fatal(err)
			}
			microSink += len(nodes)
		}
	})
	add("obs/query/on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nodes, _, err := dOn.Query("//section//title")
			if err != nil {
				b.Fatal(err)
			}
			microSink += len(nodes)
		}
	})

	// obs2: request-tracing overhead. The off/on pairs run the identical
	// server query and group-commit write paths; the only difference is a
	// RequestCtx in the context, so the delta is the full cost of tracing —
	// trace mint, context plumbing, stage stamps (admission, exec, or the
	// seven write-pipeline stamps), resource attribution, and the flight-
	// recorder ring write. The no-trace side exercises the nil-RequestCtx
	// fast path every instrumented site pays.
	srv := server.New(server.Config{Observe: obs.NewRegistry()})
	if _, err := srv.Open("bench", xmltree.Serialize(xmltree.Recursive(2, 9))); err != nil {
		panic(err)
	}
	qreq := server.QueryRequest{Query: "//section//title"}
	add("obs2/server_query/off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := srv.Query(context.Background(), "bench", qreq)
			if err != nil {
				b.Fatal(err)
			}
			microSink += resp.Count
		}
	})
	add("obs2/server_query/on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rc := obs.NewRequest("query", "bench")
			resp, err := srv.Query(obs.WithRequest(context.Background(), rc), "bench", qreq)
			if err != nil {
				b.Fatal(err)
			}
			rc.Finish(200)
			srv.Flight().RecordRequest(rc)
			microSink += resp.Count
		}
	})

	groupWrite := func(traced bool) func(b *testing.B) {
		return func(b *testing.B) {
			d, err := document.FromTree(xmltree.Recursive(2, 9), document.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := d.EnableGroupCommit(document.GroupConfig{}); err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			root := d.Snapshot().Tree().DocumentElement()
			parent := "/" + root.Name
			flight := obs.NewFlightRecorder(0, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := context.Background()
				var rc *obs.RequestCtx
				if traced {
					rc = obs.NewRequest("insert", "bench")
					ctx = obs.WithRequest(ctx, rc)
				}
				tk, err := d.EnqueueInsert(ctx, parent, 0, xmltree.NewElement("w"))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tk.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
				if traced {
					rc.Finish(200)
					flight.RecordRequest(rc)
				}
			}
		}
	}
	add("obs2/group_write/off", groupWrite(false))
	add("obs2/group_write/on", groupWrite(true))
	return out
}

// schemeFamilies are the bake-off corpora: one document per shape family
// the paper's experiments vary over, with a representative ancestor →
// descendant join for each.
var schemeFamilies = []struct {
	family    string
	build     func() *xmltree.Node
	anc, desc string
}{
	// Recursion-heavy narrow tree (§5 observation 1): sections in sections.
	{"recursive", func() *xmltree.Node { return xmltree.Recursive(2, 8) }, "section", "title"},
	// Bushy auction-site document with text payloads.
	{"xmark", func() *xmltree.Node { return xmltree.XMark(2, 7) }, "item", "name"},
	// One wide node over a narrow spine: the original UID's worst case.
	{"skewed", func() *xmltree.Node { return xmltree.Skewed(24, 2, 10) }, "wide", "deep9"},
}

// schemeBenches builds the scheme bake-off: for every registered numbering
// scheme × shape family, a structural semi-join row and a parent-step row
// (timed), plus pseudo-rows carrying label footprint and update relabel
// scope. Every scheme runs the descendant semi-join its capabilities favour
// (DESIGN.md §9): ruid the identifier semi-join over its index's Postings
// views — the one-shot form of the kernel internal/exec shards — and the
// boxed schemes, over per-name lists from scheme.IDsByName, Parent climbing
// (index.UpwardSemiJoin) when Parent is arithmetic and depth is not labeled,
// the comparison-only index.MergeSemiJoin otherwise.
func schemeBenches() (benches []struct {
	name string
	fn   func(b *testing.B)
}, rows []microResult) {
	add := func(name string, fn func(b *testing.B)) {
		benches = append(benches, struct {
			name string
			fn   func(b *testing.B)
		}{name, fn})
	}
	for _, name := range scheme.Names() {
		reg, ok := scheme.Lookup(name)
		if !ok {
			continue
		}
		for _, f := range schemeFamilies {
			doc := f.build()
			s, err := reg.Build(doc)
			if err != nil {
				panic(fmt.Sprintf("scheme %s on %s: %v", name, f.family, err))
			}
			root := doc.DocumentElement()
			var ids []scheme.ID
			root.Walk(func(x *xmltree.Node) bool {
				if id, ok := s.IDOf(x); ok {
					ids = append(ids, id)
				}
				return true
			})
			prefix := fmt.Sprintf("scheme/%s/%s/", name, f.family)
			rows = append(rows, microResult{
				Name:       prefix + "label_bytes_per_node",
				Iterations: 1,
				NsPerOp:    float64(scheme.LabelBytes(s, ids)) / float64(len(ids)),
			})
			var semiJoin func() int
			if rn, ok := s.(*core.Numbering); ok {
				ix := index.Build(root, rn)
				ancs, descs := ix.Postings(f.anc), ix.Postings(f.desc)
				semiJoin = func() int { return len(index.UpwardSemiJoinPostings(rn, ancs, descs)) }
			} else {
				lists := scheme.IDsByName(root, s)
				ancs, descs := lists[f.anc], lists[f.desc]
				kernel := index.MergeSemiJoin
				if caps := scheme.CapsOf(s); caps.ComputedParent && !caps.Depth {
					kernel = index.UpwardSemiJoin
				}
				semiJoin = func() int { return len(kernel(s, ancs, descs)) }
			}
			add(prefix+"semi_join", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					microSink += semiJoin()
				}
			})
			add(prefix+"axis_parent", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if p, ok := s.Parent(ids[i%len(ids)]); ok {
						microSink += len(p.Key())
					}
				}
			})
			// Update relabel scope: a worst-position insert (new first child
			// of the root element) on a fresh build; the row carries the
			// number of pre-existing identifiers the scheme had to change.
			if scheme.CapsOf(s).Update {
				fresh := f.build()
				fs, err := reg.Build(fresh)
				if err != nil {
					panic(err)
				}
				upd, ok := fs.(scheme.Updatable)
				if !ok {
					continue
				}
				st, err := upd.InsertChild(fresh.DocumentElement(), 0, xmltree.NewElement("zz"))
				if err != nil {
					panic(fmt.Sprintf("scheme %s on %s: insert: %v", name, f.family, err))
				}
				rows = append(rows, microResult{
					Name:       prefix + "update_relabel",
					Iterations: 1,
					NsPerOp:    float64(st.Relabeled),
				})
			}
		}
	}
	return benches, rows
}

// bytesPerPostingRows reports the resident compression of the
// block-compressed postings as pseudo-benchmark rows: the value (carried in
// ns_per_op, lower is better) is PostingsSizeBytes / PostingsCount on a
// 50k-node corpus — 16 element names attached at random positions, so the
// per-name lists interleave areas the way real documents do. A flat
// []core.ID posting costs 24 resident bytes per entry; the benchdiff gate
// on this row keeps the ≥3x reduction from silently eroding.
func bytesPerPostingRows() []microResult {
	doc := xmltree.Random(xmltree.RandomConfig{Nodes: 50000, MaxFanout: 8, DepthBias: 0.3, Seed: 7})
	rn := workload.BuildRUID(doc)
	ix := index.Build(doc.DocumentElement(), rn)
	return []microResult{{
		Name:       "postings/bytes_per_posting/nodes=50000",
		Iterations: 1,
		NsPerOp:    float64(ix.PostingsSizeBytes()) / float64(ix.PostingsCount()),
	}}
}

// applyDeltaBytesRow reports what a posting splice allocates: the bytes
// index.ApplyDelta allocates to relabel one posting of a 200 000-posting
// list and insert one — the fixture and edit of internal/index's
// TestApplyDeltaByteBudget — read from /gc/heap/allocs:bytes between
// collections (which flush the runtime's per-P counts), the least of five
// splices one collection apart so the pooled scratch survives. A splice
// pays the list's directory, 8 bytes a block, and the blocks it rewrites; one
// that copies the list whole (≈ 650 KB here) fails the gate.
func applyDeltaBytesRow() microResult {
	const n = 200000
	doc := xmltree.NewDocument()
	root := xmltree.NewElement("r")
	doc.AppendChild(root)
	for i := 0; i < n+2; i++ {
		root.AppendChild(xmltree.NewElement("x"))
	}
	num, err := core.Build(doc, core.Options{})
	if err != nil {
		panic(err)
	}
	all := index.Build(root, num).RuidIDs("x")
	relabel, insert := n/2, n/4 // all[relabel+1] and all[insert] are not in the list
	ids := make([]core.ID, 0, n)
	for i, id := range all {
		if i != relabel+1 && i != insert {
			ids = append(ids, id)
		}
	}
	ix, err := index.FromPostingLists(num, map[string]*index.PostingList{"x": index.BuildPostingList(ids)})
	if err != nil {
		panic(err)
	}
	edits := make([]map[string]*index.NameDelta, 5)
	for i := range edits {
		edits[i] = map[string]*index.NameDelta{"x": {
			Relabeled: []index.IDPair{{Old: all[relabel], New: all[relabel+1]}},
			Inserted:  []core.ID{all[insert]},
		}}
	}
	defer index.SetDebugChecks(index.SetDebugChecks(false))
	best := uint64(math.MaxUint64)
	runtime.GC()
	a0 := allocatedBytes()
	for _, e := range edits {
		if _, _, err := ix.ApplyDelta(num, e); err != nil {
			panic(err)
		}
		runtime.GC()
		a1 := allocatedBytes()
		best, a0 = min(best, a1-a0), a1
	}
	return microResult{Name: fmt.Sprintf("postings/apply_delta_bytes/postings=%d", n), Iterations: 1, NsPerOp: float64(best)}
}

// writeFixture builds the write-throughput bench document: cells distinct
// "c<i>" elements under one root, each padded with pad children. Distinct
// cell names make every cell addressable by a unique simple path, so a
// mutation stream can spread across the whole document instead of
// hammering one parent (which would overflow its UID-local area and force
// full republications — a different experiment).
func writeFixture(cells, pad int) *xmltree.Node {
	doc := xmltree.NewDocument()
	root := xmltree.NewElement("doc")
	doc.AppendChild(root)
	for i := 0; i < cells; i++ {
		cell := xmltree.NewElement(fmt.Sprintf("c%d", i))
		for j := 0; j < pad; j++ {
			cell.AppendChild(xmltree.NewElement("pad"))
		}
		root.AppendChild(cell)
	}
	return doc
}

// Write-throughput protocol (experiment E18): a fixed stream of
// insert+delete pairs — each pair lands a fresh element at position 0 of a
// round-robin cell and immediately removes it, so the document runs at
// steady state and no area ever grows past its build-time bound. The pairs
// measure the mutation path itself: per-op delta application plus epoch
// publication, with publication amortized across the batch on the
// group-commit rows. Throughput is reported as ns per mutation (an insert
// and a delete each count as one), publish amortization as epochs per
// thousand mutations.
const (
	writeCells     = 256
	writePad       = 12
	writeMutations = 4096 // 2048 insert+delete pairs
	writeBatch     = 64
)

// writeRows measures single-writer mutation throughput at batch 1 (the
// per-mutation publish path) against group commit at batch 64, plus a
// durable row where eight concurrent writers share a group-fsync WAL, and
// two cost rows of the batch=1 stream: postings the index re-encodes per
// mutation, and bytes the process allocates per mutation — the 256 cells hang
// off one wide node, so every write's spine copy passes a child list and a K
// row wider than a chunk, and copying either whole shows here. The
// batch=1 / batch=64 ratio is the headline amortization claim (≥5x); both
// rows sit in the committed baseline, so the benchdiff gate catches either
// side drifting.
func writeRows() []microResult {
	build := func(opts document.Options) *document.Document {
		d, err := document.FromTree(writeFixture(writeCells, writePad), opts)
		if err != nil {
			panic(err)
		}
		return d
	}
	rate := func(name string, ops int, el time.Duration) microResult {
		return microResult{Name: name, Iterations: ops, NsPerOp: float64(el.Nanoseconds()) / float64(ops)}
	}
	pseudo := func(name string, v float64) microResult {
		return microResult{Name: name, Iterations: 1, NsPerOp: v}
	}
	cellPath := func(i int) string { return fmt.Sprintf("/doc/c%d", i%writeCells) }
	var rows []microResult

	// batch=1: every mutation assembles and publishes its own epoch.
	serialPairs := func(d *document.Document) {
		for i := 0; i < writeMutations/2; i++ {
			if _, err := d.Insert(cellPath(i), 0, xmltree.NewElement("w")); err != nil {
				panic(err)
			}
			if _, err := d.Delete(cellPath(i), 0); err != nil {
				panic(err)
			}
		}
	}
	{
		d := build(document.Options{})
		e0 := d.Stats().Epoch
		a0 := allocatedBytes()
		start := time.Now()
		serialPairs(d)
		el := time.Since(start)
		rows = append(rows,
			rate("write/mutation_ns/batch=1", writeMutations, el),
			pseudo("write/publishes_per_kmutation/batch=1", 1000*float64(d.Stats().Epoch-e0)/writeMutations),
			pseudo("write/alloc_bytes_per_mutation/batch=1", math.Round(float64(allocatedBytes()-a0)/writeMutations)))
	}
	// The same stream once more, observed and untimed, for the index side of
	// §3.2's update scope: postings re-encoded per mutation. It is a count —
	// a pure function of the fixture and the stream — so the gate holds it
	// to the committed value exactly as tightly as it holds a timing.
	{
		reg := obs.NewRegistry()
		serialPairs(build(document.Options{Observe: reg}))
		rows = append(rows, pseudo("write/postings_reencoded_per_mutation/batch=1",
			float64(reg.Counter("index.delta_postings_reencoded").Value())/writeMutations))
	}

	// batch=64: the group committer coalesces the stream into merged-delta
	// epochs; the writer acks at publication (Wait) like a synchronous
	// client would.
	{
		d := build(document.Options{})
		if err := d.EnableGroupCommit(document.GroupConfig{MaxBatch: writeBatch}); err != nil {
			panic(err)
		}
		e0 := d.Stats().Epoch
		start := time.Now()
		tickets := make([]*document.Ticket, 0, writeMutations)
		for i := 0; i < writeMutations/2; i++ {
			ti, err := d.EnqueueInsert(context.Background(), cellPath(i), 0, xmltree.NewElement("w"))
			if err != nil {
				panic(err)
			}
			td, err := d.EnqueueDelete(context.Background(), cellPath(i), 0)
			if err != nil {
				panic(err)
			}
			tickets = append(tickets, ti, td)
		}
		for _, tk := range tickets {
			if _, err := tk.Wait(context.Background()); err != nil {
				panic(err)
			}
		}
		el := time.Since(start)
		rows = append(rows,
			rate(fmt.Sprintf("write/mutation_ns/batch=%d", writeBatch), writeMutations, el),
			pseudo(fmt.Sprintf("write/publishes_per_kmutation/batch=%d", writeBatch),
				1000*float64(d.Stats().Epoch-e0)/writeMutations))
		if err := d.Close(); err != nil {
			panic(err)
		}
	}

	// batch=64+wal: durable group commit — every mutation is fsync-acked
	// before its enqueue returns, with eight writers so the group-sync
	// leader election actually coalesces fsyncs (a lone serial writer would
	// measure raw fsync latency instead of the write path).
	{
		d := build(document.Options{})
		dir, err := os.MkdirTemp("", "ruidbench-wal-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		wal, err := storage.CreateWAL(filepath.Join(dir, "bench.wal"), storage.SyncGroup)
		if err != nil {
			panic(err)
		}
		if err := d.EnableGroupCommit(document.GroupConfig{MaxBatch: writeBatch, WAL: wal}); err != nil {
			panic(err)
		}
		const writers = 8
		perWriter := writeMutations / 2 / writers
		cellsPer := writeCells / writers
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tickets := make([]*document.Ticket, 0, 2*perWriter)
				for i := 0; i < perWriter; i++ {
					c := cellPath(w*cellsPer + i%cellsPer)
					ti, err := d.EnqueueInsert(context.Background(), c, 0, xmltree.NewElement("w"))
					if err != nil {
						panic(err)
					}
					td, err := d.EnqueueDelete(context.Background(), c, 0)
					if err != nil {
						panic(err)
					}
					tickets = append(tickets, ti, td)
				}
				for _, tk := range tickets {
					if _, err := tk.Wait(context.Background()); err != nil {
						panic(err)
					}
				}
			}(w)
		}
		wg.Wait()
		el := time.Since(start)
		rows = append(rows, rate(fmt.Sprintf("write/mutation_ns/batch=%d+wal", writeBatch), writeMutations, el))
		if err := d.Close(); err != nil {
			panic(err)
		}
	}
	return rows
}

// readRows are the read path's exact count rows, taken over the queries of
// the end-to-end benchmark sent through Server.Query the way that benchmark
// sends them: the five set-at-a-time queries of its read_join workload
// (bench/spec.go joinSpecs) and the four positional templates of read_point
// (bench/harness.go) at fixed positions.
//
// nodes_resolved_per_count_query: a count is answered on identifiers (join
// and twig plans) or on the nodes a walk already holds (navigation), so the
// committed value is 0, and a 0-baseline row passes the gate only while the
// current value is 0 too: any change that makes a count resolve a node fails
// CI.
//
// nav_visited_per_point_query: candidates the axis walks hand the evaluator
// per positional lookup. t[k] stops at its k-th match, so the value is a
// function of the fixed positions, not of how many siblings follow them; a
// change that walks an axis to its end again multiplies it.
//
// build/k_rows and build/kappa fingerprint the table K the server built for
// that document — its area count and the frame fan-out κ. Every identifier
// is a function of the partition, so a change to area-root selection that
// silently renames them all moves one of the two and fails the gate.
//
// open/heap_bytes_per_node is what one opened copy of that document keeps
// alive, per node: the growth of the live heap (HeapAlloc after two
// collections) across document.OpenString, over the node count. A document
// holds one tree — the epochs, which share what writes leave alone — so a
// second per-document copy of it (+70 % on this row) fails the gate.
func readRows() []microResult {
	src := xmltree.Serialize(xmltree.XMark(20, 1))
	heapPerNode := openHeapPerNode(src)
	reg := obs.NewRegistry()
	srv := server.New(server.Config{Observe: reg})
	d, err := srv.Open("bench", src)
	if err != nil {
		panic(err)
	}
	built := d.Stats()
	joins := []string{
		"/site//item/name", "//listitem//text", "//open_auction[bidder]/itemref",
		"/site/people/person[profile]/name", "//bidder/increase",
	}
	points := []string{
		"/site/regions/europe/item[3]/name",
		"/site/regions/namerica/item[5]/description/parlist/listitem[1]/text",
		"/site/people/person[30]/ancestor::*",
		"/site/open_auctions/open_auction[60]/bidder[1]/increase",
	}
	for i, q := range append(joins, points...) {
		resp, err := srv.Query(context.Background(), "bench", server.QueryRequest{Query: q})
		if err != nil {
			panic(err)
		}
		if nav := i >= len(joins); resp.Count == 0 || (resp.Plan == "nav") != nav {
			panic(fmt.Sprintf("ruidbench: %q answered %d by a %s plan; the rows need non-empty answers, identifier plans for the joins and navigation for the lookups", q, resp.Count, resp.Plan))
		}
	}
	return []microResult{{
		Name:       "read/nodes_resolved_per_count_query",
		Iterations: 1,
		NsPerOp:    float64(reg.Counter("query.nodes_resolved").Value()) / float64(len(joins)+len(points)),
	}, {
		Name:       "read/nav_visited_per_point_query",
		Iterations: 1,
		NsPerOp:    float64(reg.Counter("query.nav_visited").Value()) / float64(len(points)),
	}, {
		Name:       "build/k_rows",
		Iterations: 1,
		NsPerOp:    float64(built.Areas),
	}, {
		Name:       "build/kappa",
		Iterations: 1,
		NsPerOp:    float64(built.Kappa),
	}, {
		Name:       "open/heap_bytes_per_node",
		Iterations: 1,
		NsPerOp:    heapPerNode,
	}}
}

// allocatedBytes is the cumulative bytes the process has allocated: a counter
// the runtime keeps, independent of when collections run.
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// openHeapPerNode opens src and returns the live heap the document holds,
// in bytes per node.
func openHeapPerNode(src string) float64 {
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	d, err := document.OpenString(src, document.Options{})
	if err != nil {
		panic(err)
	}
	after := live()
	nodes := d.Stats().Nodes // also keeps d alive across the measurement
	return math.Round(float64(after-before) / float64(nodes))
}

// Default scale of the out-of-core I/O rows: big enough that the stored
// tables dwarf the ~5% pool and the baselines page on every chain, small
// enough that a -json baseline run stays in tens of seconds.
const (
	defaultIONodes   = 60_000
	defaultIOSamples = 400
)

// ioRows measures the out-of-core I/O profile (experiment E17 at reduced
// scale) as pseudo-benchmark rows: the value carried in ns_per_op is a page
// count, byte volume or rate — lower is better for every row, so the
// benchdiff regression gate applies unchanged. The headline row is
// io/ruid_nav_reads: its committed baseline is 0, and a 0-baseline row
// passes the gate only while the current value is also 0, so any change
// that makes ruid axis navigation touch stored pages fails CI.
func ioRows(nodes, samples int) []microResult {
	s := workload.MeasureOutOfCore(nodes, samples)
	row := func(name string, v float64) microResult {
		return microResult{
			Name:       fmt.Sprintf("io/%s/nodes=%d", name, nodes),
			Iterations: 1,
			NsPerOp:    v,
		}
	}
	return []microResult{
		row("ruid_nav_reads", float64(s.RuidNavReads)),
		row("ruid_nav_reads_per_kstep", 1000*safeDiv(s.RuidNavReads, s.RuidNavSteps)),
		row("prepost_reads", float64(s.PrepostReads)),
		row("prepost_reads_per_kstep", 1000*safeDiv(s.PrepostReads, s.PrepostSteps)),
		row("uid_reads", float64(s.UIDReads)),
		row("uid_reads_per_kstep", 1000*safeDiv(s.UIDReads, s.UIDSteps)),
		row("cold_query_reads", float64(s.ColdQueryReads)),
		row("cold_miss_rate_pct", s.ColdMissRate()),
		row("cold_bytes_faulted", float64(s.ColdBytesFaulted())),
		row("warm_query_reads", float64(s.WarmQueryReads)),
		row("warm_miss_rate_pct", 100-s.WarmHitRate()),
	}
}

func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// microResult is one row of the -json output. The fields mirror what
// `go test -benchmem` prints, so baselines diff cleanly against test runs.
type microResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

var microSink int

// runMicrobench measures the identifier hot paths — structural joins,
// RParent arithmetic and axis generation, each on both the generic
// scheme.ID interface path and the concrete core.ID fast path — and writes
// one JSON array. This is the machine-readable baseline behind
// BENCH_baseline.json.
func runMicrobench(out io.Writer) error {
	doc := xmltree.Recursive(2, 9)
	rn := workload.BuildRUID(doc)
	ix := index.Build(doc.DocumentElement(), rn)
	ancs, descs := index.SlicePostings(ix.RuidIDs("section")), index.SlicePostings(ix.RuidIDs("title"))
	bAncs, bDescs := ix.IDs("section"), ix.IDs("title")

	axisDoc := xmltree.XMark(2, 2)
	an := workload.BuildRUID(axisDoc)
	nodes := axisDoc.DocumentElement().Nodes()
	rng := rand.New(rand.NewSource(9))
	ids := make([]core.ID, 128)
	for i := range ids {
		ids[i], _ = an.RUID(nodes[rng.Intn(len(nodes))])
	}

	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"upward_join/interface", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(index.UpwardJoin(rn, bAncs, bDescs))
			}
		}},
		{"upward_join/fastpath", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(index.UpwardJoinPostings(rn, ancs, descs))
			}
		}},
		{"merge_join/interface", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(index.MergeJoin(rn, bAncs, bDescs))
			}
		}},
		{"merge_join/fastpath", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(index.MergeJoinPostings(rn, ancs, descs))
			}
		}},
		{"upward_semi_join/interface", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(index.UpwardSemiJoin(rn, bAncs, bDescs))
			}
		}},
		{"upward_semi_join/fastpath", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(index.UpwardSemiJoinPostings(rn, ancs, descs))
			}
		}},
		{"path_query/interface", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(ix.PathQuery("section", "section", "title"))
			}
		}},
		{"path_query/fastpath", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(ix.PathQueryRUID("section", "section", "title"))
			}
		}},
		{"rparent", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, _, err := an.RParent(ids[i%len(ids)])
				if err != nil {
					b.Fatal(err)
				}
				microSink += int(p.Local)
			}
		}},
		{"axis_children/interface", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(an.Children(ids[i%len(ids)]))
			}
		}},
		{"axis_children/fastpath", func(b *testing.B) {
			buf := make([]core.ID, 0, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				microSink += len(an.AppendChildren(buf[:0], ids[i%len(ids)]))
			}
		}},
		{"axis_descendants/interface", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(an.Descendants(ids[i%len(ids)]))
			}
		}},
		{"axis_descendants/fastpath", func(b *testing.B) {
			buf := make([]core.ID, 0, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				microSink += len(an.AppendDescendants(buf[:0], ids[i%len(ids)]))
			}
		}},
		{"axis_following/interface", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink += len(an.Following(ids[i%len(ids)]))
			}
		}},
		{"axis_following/fastpath", func(b *testing.B) {
			buf := make([]core.ID, 0, 8192)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				microSink += len(an.AppendFollowing(buf[:0], ids[i%len(ids)]))
			}
		}},
		{"epoch_publish/nodes=5000", epochPublishBench(5000)},
		{"epoch_publish/nodes=50000", epochPublishBench(50000)},
	}
	benches = append(benches, parallelBenches()...)
	benches = append(benches, postingsBenches()...)
	benches = append(benches, obsBenches()...)
	schemeB, schemeRows := schemeBenches()
	benches = append(benches, schemeB...)

	results := make([]microResult, 0, len(benches)+1)
	for _, bench := range benches {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bench.fn(b)
		})
		results = append(results, microResult{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	results = append(results, bytesPerPostingRows()...)
	results = append(results, applyDeltaBytesRow())
	results = append(results, writeRows()...)
	results = append(results, readRows()...)
	results = append(results, schemeRows...)
	// The out-of-core rows always run at the default scale here so the
	// committed baseline stays comparable run to run; -io-json re-measures
	// at a caller-chosen scale without touching the baseline set.
	results = append(results, ioRows(defaultIONodes, defaultIOSamples)...)

	if err := writeJSON(out, results); err != nil {
		return err
	}
	_ = fmt.Sprintf("%d", microSink) // keep the sink live
	return nil
}

// writeJSON emits rows in the committed BENCH_baseline.json format.
func writeJSON(out io.Writer, rows []microResult) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
