package document

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// groupFixture builds a document with small areas so batches cross area
// boundaries and exercise relabel chains.
func groupFixture(t *testing.T) *Document {
	t.Helper()
	d, err := FromTree(xmltree.Recursive(2, 6), Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// batchMutation is one scripted op for the equivalence tests.
type batchMutation struct {
	insert bool
	parent string
	pos    int
	xml    string
}

func applySerial(t *testing.T, d *Document, muts []batchMutation) {
	t.Helper()
	for i, m := range muts {
		var err error
		if m.insert {
			sub, perr := xmltree.ParseFragment(m.xml)
			if perr != nil {
				t.Fatal(perr)
			}
			_, err = d.Insert(m.parent, m.pos, sub)
		} else {
			_, err = d.Delete(m.parent, m.pos)
		}
		if err != nil {
			t.Fatalf("serial op %d: %v", i, err)
		}
	}
}

func enqueueAll(t *testing.T, d *Document, muts []batchMutation) []*Ticket {
	t.Helper()
	tickets := make([]*Ticket, len(muts))
	for i, m := range muts {
		var err error
		if m.insert {
			sub, perr := xmltree.ParseFragment(m.xml)
			if perr != nil {
				t.Fatal(perr)
			}
			tickets[i], err = d.EnqueueInsert(context.Background(), m.parent, m.pos, sub)
		} else {
			tickets[i], err = d.EnqueueDelete(context.Background(), m.parent, m.pos)
		}
		if err != nil {
			t.Fatalf("enqueue op %d: %v", i, err)
		}
	}
	return tickets
}

// stamp is what a node carries of its numbering, root flag included.
type stamp struct {
	num  xmltree.NodeNum
	root bool
}

func stampOf(x *xmltree.Node) stamp {
	num, root := x.Num()
	return stamp{num, root}
}

// assertDocsEqual compares two documents' current epochs byte for byte:
// serialized tree, numbering stamps node by node, stats and a set of probe
// queries.
func assertDocsEqual(t *testing.T, got, want *Document) {
	t.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	if g, w := xmltree.Serialize(gs.Tree()), xmltree.Serialize(ws.Tree()); g != w {
		t.Fatalf("trees diverge:\n got %s\nwant %s", g, w)
	}
	var walk func(a, b *xmltree.Node)
	walk = func(a, b *xmltree.Node) {
		if a.Kind == xmltree.Element && stampOf(a) != stampOf(b) {
			t.Fatalf("stamp mismatch at %s: got %v want %v", a.Path(), stampOf(a), stampOf(b))
		}
		for i := 0; i < a.NumChildren(); i++ {
			walk(a.Child(i), b.Child(i))
		}
	}
	walk(gs.Tree(), ws.Tree())
	g, w := got.Stats(), want.Stats()
	if g.Nodes != w.Nodes || g.Areas != w.Areas || g.Names != w.Names {
		t.Fatalf("stats diverge: got %+v want %+v", g, w)
	}
	for _, q := range []string{"//section", "//title", "//w1", "//w4", "//ephemeral", "/book/section//para"} {
		gr, _, gerr := gs.Query(q)
		wr, _, werr := ws.Query(q)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("%s: errors diverge: %v vs %v", q, gerr, werr)
		}
		if len(gr) != len(wr) {
			t.Fatalf("%s: %d results, want %d", q, len(gr), len(wr))
		}
		for i := range gr {
			if stampOf(gr[i]) != stampOf(wr[i]) || gr[i].Name != wr[i].Name {
				t.Fatalf("%s[%d]: %s%v vs %s%v", q, i, gr[i].Name, stampOf(gr[i]), wr[i].Name, stampOf(wr[i]))
			}
		}
	}
}

// assertSameTreeAndStamps compares two documents' current epochs by
// serialization and by the stamp of every node, attributes included.
func assertSameTreeAndStamps(t *testing.T, what string, got, want *Document) {
	t.Helper()
	gt, wt := got.Snapshot().Tree(), want.Snapshot().Tree()
	if g, w := xmltree.Serialize(gt), xmltree.Serialize(wt); g != w {
		t.Fatalf("%s: trees diverge:\n got %s\nwant %s", what, g, w)
	}
	var gs, ws []stamp
	gt.WalkFull(func(x *xmltree.Node) bool { gs = append(gs, stampOf(x)); return true })
	wt.WalkFull(func(x *xmltree.Node) bool { ws = append(ws, stampOf(x)); return true })
	if !slices.Equal(gs, ws) {
		t.Fatalf("%s: stamps diverge", what)
	}
}

// TestFailedBatchMemberPublishesNothing is write atomicity at the document
// layer, on core's forced-overflow geometry: with 1-bit local indices a
// second child under b overflows where no promotion helps, while a child
// under the leaf c overflows where one does (the heal renumbers the whole
// tree, on a clone of it the fork takes mid-batch). A batch of nothing but
// failures leaves the very snapshot that was current; a failed member of a
// mixed batch publishes nothing of itself while the others land, healed one
// included; the epoch pinned before reads as it did; the next write succeeds.
func TestFailedBatchMemberPublishesNothing(t *testing.T) {
	open := func() *Document {
		d, err := OpenString("<a><b><c/></b></a>", Options{
			Partition: core.PartitionConfig{MaxAreaNodes: 1, MaxLocalBits: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	var healed bool
	batch := func(d *Document, muts []batchMutation) []error {
		t.Helper()
		if err := d.EnableGroupCommit(GroupConfig{MaxBatch: len(muts), MaxDelay: 500 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		defer d.DisableGroupCommit()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		errs := make([]error, len(muts))
		for i, tk := range enqueueAll(t, d, muts) {
			var st core.UpdateStats
			st, errs[i] = tk.Wait(ctx)
			healed = healed || st.FullRebuild
		}
		return errs
	}
	overflow := batchMutation{insert: true, parent: "/a/b", pos: 1, xml: "<d/>"}

	d := open()
	pinned := d.Snapshot()
	was := xmltree.Serialize(pinned.Tree())
	for i, err := range batch(d, []batchMutation{overflow, {parent: "/a/b", pos: 7}, overflow}) {
		if err == nil {
			t.Fatalf("member %d of the all-failing batch succeeded", i)
		}
	}
	if d.Snapshot() != pinned {
		t.Fatalf("a batch of failures published epoch %d", d.Snapshot().Epoch())
	}

	good := []batchMutation{
		{insert: true, parent: "/a/b/c", pos: 0, xml: "<x/>"}, // overflows at c, heals by promoting it
		{insert: true, parent: "/a/b/c/x", pos: 0, xml: "<y/>"},
		{parent: "/a/b/c/x", pos: 0},
	}
	errs := batch(d, []batchMutation{good[0], overflow, good[1], overflow, good[2]})
	for i, err := range errs {
		if failed := i == 1 || i == 3; failed && !errors.Is(err, core.ErrOverflow) {
			t.Fatalf("member %d: err = %v, want ErrOverflow", i, err)
		} else if !failed && err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	if got := d.Snapshot().Epoch(); got != pinned.Epoch()+1 || !healed {
		t.Fatalf("the mixed batch published %d epochs (healed an overflow: %v), want 1 with a heal", got-pinned.Epoch(), healed)
	}
	serial := open()
	applySerial(t, serial, good)
	assertSameTreeAndStamps(t, "batch with failed members vs its good members one by one", d, serial)
	if got := xmltree.Serialize(pinned.Tree()); got != was {
		t.Fatalf("the pinned epoch changed: %s, was %s", got, was)
	}
	if _, err := d.Delete("/a/b/c", 0); err != nil {
		t.Fatalf("write after the failures: %v", err)
	}
	if got := xmltree.Serialize(d.Snapshot().Tree().DocumentElement()); got != "<a><b><c/></b></a>" {
		t.Fatalf("after the last delete: %s", got)
	}
}

// TestBatchDeleteInsideInsertedSubtree: a batch that inserts a subtree and
// then edits inside it — detaching one inserted element, adding another —
// must still publish incrementally. The detached element was never in a
// published posting list, so the index patch must not hear of it (the index
// rejects edits of identifiers it never held, and a rejected patch falls
// back to a full rebuild).
func TestBatchDeleteInsideInsertedSubtree(t *testing.T) {
	reg := obs.NewRegistry()
	grouped, err := FromTree(xmltree.Recursive(2, 6), Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 8},
		Observe:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	serial := groupFixture(t)
	muts := []batchMutation{
		{insert: true, parent: "/book/section", pos: 0, xml: "<w1><t1/><t2/></w1>"},
		{parent: "/book/section/w1", pos: 0}, // t1 goes before anyone saw it
		{insert: true, parent: "/book/section/w1", pos: 1, xml: "<w4/>"},
		{parent: "/book/section/section", pos: 2},
	}
	applySerial(t, serial, muts)

	if err := grouped.EnableGroupCommit(GroupConfig{MaxBatch: 64, MaxDelay: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer grouped.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, tk := range enqueueAll(t, grouped, muts) {
		if _, err := tk.Wait(ctx); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	assertDocsEqual(t, grouped, serial)
	if err := grouped.Snapshot().Index().CheckSorted(); err != nil {
		t.Fatal(err)
	}
	if full, incr := reg.Counter("doc.publish_full").Value(), reg.Counter("doc.publish_incremental").Value(); full != 1 || incr != 1 {
		t.Fatalf("published %d full and %d incremental epochs, want the open and one incremental batch", full, incr)
	}
}

// TestRejectedAssemblyFailsLoudly: a batch whose index edits ApplyDelta
// rejects — here a delta dropping the root element under an identifier no
// epoch gave it — can only come from a broken invariant. Under RUID_DEBUG
// publication panics with the error and installs nothing; outside it,
// publication falls back to a full rebuild, which doc.publish_full counts,
// and the epoch it installs answers like the one before.
func TestRejectedAssemblyFailsLoudly(t *testing.T) {
	defer func(prev bool) { debugChecks = prev }(debugChecks)
	reg := obs.NewRegistry()
	d, err := FromTree(xmltree.Recursive(2, 6), Options{Observe: reg})
	if err != nil {
		t.Fatal(err)
	}
	titles := func() int {
		nodes, _, err := d.Query("//section/title")
		if err != nil {
			t.Fatal(err)
		}
		return len(nodes)
	}
	want := titles()
	ghost := core.ID{Global: 1, Local: 1 << 40}
	publishDoctored := func() (panicked any, err error) {
		d.mu.Lock()
		defer d.mu.Unlock()
		defer func() { panicked = recover() }()
		prev := d.cur.Load()
		if _, ok := prev.num.NodeOfID(ghost); ok {
			t.Fatalf("fixture: %v resolves", ghost)
		}
		w := &working{num: prev.num.Fork(), born: map[*xmltree.Node]struct{}{}, nodes: prev.nodes, depths: prev.depths}
		w.deltas = []*core.Delta{{Dropped: []core.NodeID{{Node: w.num.Root(), ID: ghost}}}}
		return nil, d.publishLocked(w, nil)
	}

	debugChecks = true
	panicked, err := publishDoctored()
	if msg, _ := panicked.(string); !strings.Contains(msg, "incremental assembly") || !strings.Contains(msg, ghost.String()) {
		t.Fatalf("debug publication: panic %v, err %v; want a panic naming the rejected edit", panicked, err)
	}
	if got := d.Snapshot().Epoch(); got != 1 {
		t.Fatalf("the panicking publication installed epoch %d", got)
	}

	debugChecks = false
	if panicked, err := publishDoctored(); err != nil || panicked != nil {
		t.Fatalf("publication: err %v, panic %v; want the full-rebuild fallback", err, panicked)
	}
	if full, incr := reg.Counter("doc.publish_full").Value(), reg.Counter("doc.publish_incremental").Value(); full != 2 || incr != 0 {
		t.Fatalf("published %d full and %d incremental epochs, want the open and the fallback in full", full, incr)
	}
	if got := d.Snapshot().Epoch(); got != 2 {
		t.Fatalf("fallback installed epoch %d, want 2", got)
	}
	if got := titles(); got != want {
		t.Fatalf("//section/title = %d after the fallback, %d before", got, want)
	}
}

// TestGroupCommitConcurrent drives concurrent writers against concurrent
// pinned-snapshot readers across the async publish pipeline (run under
// -race). Invariants: a pinned snapshot answers identically forever, every
// acked insert is eventually visible, and the final count balances.
func TestGroupCommitConcurrent(t *testing.T) {
	d := groupFixture(t)
	if err := d.EnableGroupCommit(GroupConfig{MaxBatch: 16, MaxDelay: 200 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	start := d.Stats().Nodes

	const writers, perWriter, readers = 4, 25, 3
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := d.Snapshot()
				a, _, err1 := s.Query("//section")
				b, _, err2 := s.Query("//section")
				if err1 != nil || err2 != nil || len(a) != len(b) {
					t.Errorf("pinned snapshot unstable: %d vs %d (%v %v)", len(a), len(b), err1, err2)
					return
				}
			}
		}()
	}
	var werr sync.Map
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			// Writers target distinct parents so their inserts commute.
			parent := "/book/section"
			for i := 0; i < w; i++ {
				parent += "/section"
			}
			for i := 0; i < perWriter; i++ {
				tk, err := d.EnqueueInsert(context.Background(), parent, 0, xmltree.NewElement(fmt.Sprintf("leaf%dx%d", w, i)))
				if err != nil {
					werr.Store(fmt.Sprintf("w%d-enq%d", w, i), err)
					return
				}
				if _, err := tk.Wait(ctx); err != nil {
					werr.Store(fmt.Sprintf("w%d-wait%d", w, i), err)
					return
				}
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	wg.Wait()
	werr.Range(func(k, v any) bool {
		t.Errorf("%v: %v", k, v)
		return false
	})
	if t.Failed() {
		t.FailNow()
	}
	if got, want := d.Stats().Nodes, start+writers*perWriter; got != want {
		t.Fatalf("final nodes %d, want %d", got, want)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			q := fmt.Sprintf("//leaf%dx%d", w, i)
			if res, _, err := d.Query(q); err != nil || len(res) != 1 {
				t.Fatalf("%s: %d results, err %v", q, len(res), err)
			}
		}
	}
}

// TestGroupCommitLifecycle pins the enable/disable contract: the same
// Enqueue call works with and without a commit loop — inline, with the
// ticket already decided, when there is none.
func TestGroupCommitLifecycle(t *testing.T) {
	d := groupFixture(t)
	ctx := context.Background()
	inline := func(name string) {
		t.Helper()
		epoch := d.Snapshot().Epoch()
		tk, err := d.EnqueueInsert(ctx, "/book", 0, xmltree.NewElement(name))
		if err != nil {
			t.Fatalf("enqueue without a commit loop: %v", err)
		}
		select {
		case <-tk.Done():
		default:
			t.Fatal("enqueue without a commit loop returned an undecided ticket")
		}
		if _, err := tk.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if got := d.Snapshot().Epoch(); got != epoch+1 {
			t.Fatalf("inline enqueue published %d epochs, want 1", got-epoch)
		}
		if res, _, err := d.Query("/book/" + name); err != nil || len(res) != 1 {
			t.Fatalf("inline insert not visible at return: %v %v", res, err)
		}
	}
	inline("before")
	// A mutation the document rejects is decided inline too, on the ticket.
	tk, err := d.EnqueueDelete(ctx, "/book/nosuch", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err == nil {
		t.Fatal("inline delete under an unmatched path succeeded")
	}

	if err := d.EnableGroupCommit(GroupConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := d.EnableGroupCommit(GroupConfig{}); err == nil {
		t.Fatal("double enable accepted")
	}
	tk, err = d.EnqueueInsert(ctx, "/book", 0, xmltree.NewElement("x"))
	if err != nil {
		t.Fatal(err)
	}
	// Close flushes the queue: the ticket must be decided, successfully.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	default:
		t.Fatal("Close left a queued op undecided")
	}
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	inline("after")
	if err := d.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestWritesRacingClose: writers racing Close must all return — through the
// loop, refused with ErrDocumentClosed, or inline once the loop is gone —
// and every write that reported success must be in the document. An op sent
// behind a loop that has already drained would leave its writer waiting
// forever.
func TestWritesRacingClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		d := groupFixture(t)
		if err := d.EnableGroupCommit(GroupConfig{MaxBatch: 4, MaxDelay: -1, QueueDepth: 2}); err != nil {
			t.Fatal(err)
		}
		start := d.Stats().Nodes
		const writers, perWriter = 4, 8
		var ok atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					_, err := d.Insert("/book", 0, xmltree.NewElement("r"))
					switch {
					case err == nil:
						ok.Add(1)
					case !errors.Is(err, ErrDocumentClosed):
						t.Errorf("insert racing Close: %v", err)
					}
				}
			}()
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("a writer racing Close never returned")
		}
		if got, want := d.Stats().Nodes, start+int(ok.Load()); got != want {
			t.Fatalf("round %d: %d nodes after %d successful inserts, want %d", round, got, ok.Load(), want)
		}
	}
}

// TestGroupCommitStageStamps pins the write-pipeline tracing contract: a
// traced EnqueueInsert over a WAL must stamp all seven pipeline stages
// onto the request, and the reported timeline must be monotonically
// non-decreasing even though the stamps come from three goroutines (the
// writer, the fsync leader, the commit loop).
func TestGroupCommitStageStamps(t *testing.T) {
	wal, err := storage.CreateWAL(filepath.Join(t.TempDir(), "doc.wal"), storage.SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	d := groupFixture(t)
	if err := d.EnableGroupCommit(GroupConfig{MaxBatch: 4, MaxDelay: time.Millisecond, WAL: wal}); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rc := obs.NewRequest("insert", "fixture")
	ctx := obs.WithRequest(context.Background(), rc)
	tk, err := d.EnqueueInsert(ctx, "/book/section", 0, xmltree.NewElement("traced"))
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := tk.Wait(wctx); err != nil {
		t.Fatal(err)
	}
	rc.Finish(200)

	stages := rc.Summary().Stages
	want := []string{
		obs.StageEnqueue, obs.StageWALAppend, obs.StageFsyncDone,
		obs.StageDequeue, obs.StageMerged, obs.StagePublished, obs.StageVisible,
	}
	got := make(map[string]bool, len(stages))
	for _, s := range stages {
		got[s.Name] = true
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("stage %q not stamped (got %v)", name, stages)
		}
	}
	if len(stages) != len(want) {
		t.Errorf("stamped %d stages, want %d: %v", len(stages), len(want), stages)
	}
	for i := 1; i < len(stages); i++ {
		if stages[i].OffsetUS < stages[i-1].OffsetUS {
			t.Fatalf("timeline not monotone: %v", stages)
		}
	}

	// An untraced enqueue (plain context) must not panic and must not
	// leak stamps anywhere.
	tk2, err := d.EnqueueInsert(context.Background(), "/book/section", 0, xmltree.NewElement("untraced"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk2.Wait(wctx); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitGaugesFollowLiveDocument: documents of one server share a
// registry. write.queue_depth / write.pipeline_depth used to be RegisterFunc
// closures over the first document's committer — first wins, never
// unregistered — so they reported only that document and pinned it (master
// tree, m2e, WAL) after it was dropped. As plain gauges set by each commit
// loop they follow whichever document is writing, and a closed document is
// garbage.
func TestGroupCommitGaugesFollowLiveDocument(t *testing.T) {
	reg := obs.NewRegistry()
	open := func() *Document {
		d, err := FromTree(xmltree.Recursive(2, 6), Options{Observe: reg})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.EnableGroupCommit(GroupConfig{MaxBatch: 1}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	collected := make(chan struct{})
	func() {
		first := open()
		runtime.SetFinalizer(first, func(*Document) { close(collected) })
		if _, err := first.Insert("/book", 0, xmltree.NewElement("x")); err != nil {
			t.Fatal(err)
		}
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	live := open()

	// Hold the writer mutex so the live document's commit loop parks inside
	// commit with one op in flight and nothing queued behind it.
	live.mu.Lock()
	tk, err := live.EnqueueInsert(context.Background(), "/book", 0, xmltree.NewElement("y"))
	if err != nil {
		live.mu.Unlock()
		t.Fatal(err)
	}
	pipeline, queue := reg.Gauge("write.pipeline_depth"), reg.Gauge("write.queue_depth")
	deadline := time.Now().Add(10 * time.Second)
	for pipeline.Value() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got, gotQueue := pipeline.Value(), queue.Value()
	live.mu.Unlock()
	if got != 1 || gotQueue != 0 {
		t.Fatalf("with one op in flight on the live document: pipeline_depth %d queue_depth %d, want 1 and 0", got, gotQueue)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil { // the loop has exited: gauges are final
		t.Fatal(err)
	}
	if pipeline.Value() != 0 || queue.Value() != 0 {
		t.Fatalf("drained: pipeline_depth %d queue_depth %d, want 0 and 0", pipeline.Value(), queue.Value())
	}

	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the closed document is still reachable (pinned by the registry?)")
}
