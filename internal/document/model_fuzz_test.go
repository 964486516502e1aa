package document_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// FuzzServingModel is the differential harness of the serving stack
// (DESIGN.md, "One differential harness"). It decodes its input into a
// program of inserts, deletes, queries, counts, pins and reopens and runs it
// in lockstep against a model — a pointer tree mutated through the xmltree
// API and queried by the pointer navigator — and one Document per serving
// configuration: {resident, PoolPages 8} × {exec.Serial, exec.Forced} ×
// {batch 1, batch 64} behind a commit loop and a WAL, and "inline", which
// writes with neither. After every step each configuration must hold the
// model's tree and answers, the stamps of every other one and postings,
// payload rows and a table K that agree with its tree; a write must fail
// wherever the model's one-by-one application fails, and a batch-1 write
// must keep its relabels and copies inside its update area (§3.2).
//
// The input's first byte picks the base document, the second the partition
// and whether attributes are numbered; then each step takes an opcode byte
// and its arguments until the input ends. go test -fuzz writes a failing
// input, minimised, to testdata/fuzz/FuzzServingModel, where it stays as a
// seed.
func FuzzServingModel(f *testing.F) {
	defer index.SetDebugChecks(index.SetDebugChecks(true))
	defer storage.SetDebugChecks(storage.SetDebugChecks(true))
	cov := make(map[string]int) // what the programs, run one at a time, reached
	var seeds [][]byte
	for i := 0; i < 8; i++ {
		prog := make([]byte, 400)
		rand.New(rand.NewSource(int64(i))).Read(prog)
		prog[0], prog[1] = byte(i%len(servingBases)), byte(i) // every base, partition and attribute setting
		seeds = append(seeds, prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runServingModel(t, prog, cov)
		if i := slices.IndexFunc(seeds, func(s []byte) bool { return bytes.Equal(s, prog) }); i >= 0 {
			cov[fmt.Sprint("seed ", i)]++
		}
	})
	// Replayed together, the generated seeds reach every step and plan kind
	// and every write outcome. Not checked while fuzzing, nor when -run
	// leaves a seed out.
	for i := range seeds {
		if flag.Lookup("test.fuzz").Value.String() != "" || cov[fmt.Sprint("seed ", i)] == 0 {
			return
		}
	}
	for _, what := range []string{"insert", "delete", "query", "count", "pin", "reopen", "join plan", "twig plan",
		"nav plan", "pruned", "full rebuild", "refused write", "relabeling write", "pin outlived"} {
		if cov[what] == 0 {
			f.Errorf("the seeds reached no %s", what)
		}
	}
	f.Logf("seed coverage: %v", cov)
}

// servingBases: shelves wider than a chunk of a child list, whose books fill
// two posting blocks, with attributes and text; recursion; an XMark shape.
var servingBases = []string{
	func() string {
		var sb strings.Builder
		sb.WriteString(`<lib><shelf floor="0">`)
		for b := 0; b < 140; b++ {
			if b == 70 {
				sb.WriteString(`</shelf><shelf floor="1">`)
			}
			fmt.Fprintf(&sb, `<book id="b%d">%s</book>`, b, []string{"", "<title>t</title>"}[min(b%5, 1)])
		}
		return sb.String() + `</shelf><annex/></lib>`
	}(),
	xmltree.Serialize(xmltree.Recursive(2, 4)),
	`<site><regions><europe><item id="i1"><name>n</name><description><text>t</text></description></item>` +
		`<item id="i2"><name>m</name></item></europe><asia/></regions><people><person id="p1"><name>x</name>` +
		`<profile income="1"/></person></people><open_auctions><open_auction><bidder><increase>1</increase>` +
		`</bidder><itemref item="i1"/><initial>2</initial></open_auction></open_auctions></site>`,
}

// servingPartitions: small areas, with and without the fan-out adjustment;
// seven local bits, where inserts overflow and heal by promotion (a full
// rebuild); the serving default.
var servingPartitions = []core.PartitionConfig{
	{MaxAreaNodes: 4, AdjustFanout: true},
	{MaxAreaNodes: 8},
	{MaxAreaNodes: 16, MaxLocalBits: 7},
	{},
}

// servingSteps maps an opcode byte, mod 16, to its step.
var servingSteps = [16]string{"insert", "insert", "insert", "insert", "insert", "insert", "delete", "delete",
	"query", "query", "query", "count", "count", "pin", "pin", "reopen"}

// live is one configuration's document and its snapshot of each pin.
type live struct {
	name  string
	pool  int
	mode  exec.Mode
	batch int // 1 or 64 behind a commit loop and WAL; 0 writes inline
	d     *document.Document
	reg   *obs.Registry
	wal   string
	pins  []*document.Snapshot
}

// write is one insert or delete of a program.
type write struct {
	insert bool
	parent string // the positional path a client sends
	at     []int  // the parent's child positions from the document node down
	pos    int
	xml    string
	ok     bool // the model applied it
}

func (w *write) String() string {
	if w.insert {
		return fmt.Sprintf("insert %s at %d under %s", w.xml, w.pos, w.parent)
	}
	return fmt.Sprintf("delete %d under %s", w.pos, w.parent)
}

type pin struct {
	q      string
	xml    string
	stamps []string
	paths  []string
}

type servingHarness struct {
	t       *testing.T
	cov     map[string]int
	base    string
	opts    document.Options
	model   *xmltree.Node
	lives   []*live
	queued  []*write // not yet written to the batch-64 configurations
	pins    []pin
	applied int // the writes the model applied and refused: every WAL holds them all
	failed  int
}

func runServingModel(t *testing.T, prog []byte, cov map[string]int) {
	p := &program{b: prog}
	base := servingBases[int(p.next())%len(servingBases)]
	hb := p.next()
	model, err := xmltree.ParseString(base)
	if err != nil {
		t.Fatal(err)
	}
	h := &servingHarness{t: t, cov: cov, base: base, model: model,
		opts: document.Options{Partition: servingPartitions[hb%4], WithAttrs: hb&4 != 0}}
	dir := t.TempDir()
	for i := 0; i < 8; i++ {
		l := &live{pool: 8 * (i >> 2), mode: []exec.Mode{exec.Serial, exec.Forced}[i>>1&1], batch: []int{1, 64}[i&1]}
		if l.name = fmt.Sprintf("pool=%d/%s/batch=%d", l.pool, l.mode, l.batch); l.batch == 64 {
			l.reg = obs.NewRegistry() // observed, as the server runs
		}
		h.lives = append(h.lives, l)
	}
	h.lives = append(h.lives, &live{name: "inline", mode: exec.Serial})
	for i, l := range h.lives {
		l.wal = filepath.Join(dir, fmt.Sprint(i, ".wal"))
		h.open(l)
		if (l.d.Store() != nil) != (l.pool > 0) {
			t.Fatalf("%s: Store() = %v", l.name, l.d.Store())
		}
		l.d.DropCaches() // the first check reads every posting list cold
	}
	h.check(false)
	for _, l := range h.lives {
		if st := l.d.IOStats(); l.pool > 0 && st.Reads == 0 {
			t.Fatalf("%s: reading a cold paged document faulted nothing: %+v", l.name, st)
		}
	}
	for step := 0; step < 64 && p.i < len(p.b); step++ {
		kind := servingSteps[p.next()%16]
		if kind != "insert" && kind != "delete" {
			h.flush()
		}
		switch kind {
		case "insert", "delete":
			h.write(p, kind == "insert")
		case "query", "count":
			h.run(h.query(p), kind == "count")
		case "pin":
			h.pin(p)
		case "reopen":
			for _, l := range h.lives {
				if l.batch > 0 {
					h.open(l) // the document it replaces is abandoned
				}
			}
		}
		cov[kind]++
		h.check(kind != "query" && kind != "count")
	}
	h.flush()
	h.check(true)
	for _, l := range h.lives {
		if l.reg != nil {
			cov["pruned"] += int(l.reg.Counter("query.guide_pruned").Value())
		}
	}
}

// open builds l's document from the base source and, for a configuration
// with a commit loop, replays its WAL into it first.
func (h *servingHarness) open(l *live) {
	t := h.t
	opts := h.opts
	opts.PoolPages, opts.Parallel, opts.Observe = l.pool, l.mode, l.reg
	if l.mode == exec.Forced {
		opts.ExecWorkers = 4
	}
	d, err := document.OpenString(h.base, opts)
	if err != nil {
		t.Fatalf("%s: open: %v", l.name, err)
	}
	t.Cleanup(func() { d.Close() })
	l.d = d
	if l.batch == 0 {
		return
	}
	var records [][]byte
	wal, err := storage.OpenWAL(l.wal, storage.SyncGroup, func(p []byte) error {
		records = append(records, slices.Clone(p))
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", l.name, err)
	}
	applied, skipped, err := d.ReplayWAL(records)
	if err != nil || applied != h.applied || skipped != h.failed {
		t.Fatalf("%s: replay applied %d, skipped %d, err %v; the model applied %d and refused %d",
			l.name, applied, skipped, err, h.applied, h.failed)
	}
	if want := 1 + min(applied, 1); d.Snapshot().Epoch() != uint64(want) {
		t.Fatalf("%s: replay left epoch %d, want %d", l.name, d.Snapshot().Epoch(), want)
	}
	if err := d.EnableGroupCommit(document.GroupConfig{MaxBatch: l.batch, WAL: wal}); err != nil {
		t.Fatal(err)
	}
	if l.pool > 0 {
		d.DropCaches()
	}
}

// write draws a write from the model, applies it to the model and to every
// configuration that waits for each write, and queues it for the others.
func (h *servingHarness) write(p *program, insert bool) {
	t := h.t
	els := h.model.DocumentElement().Elements()
	x := els[int(p.next())%len(els)]
	for x.Depth() > 12 { // frame indices grow exponentially with the depth of a parent
		x = x.Parent
	}
	w := &write{insert: insert, parent: positionalPath(x), pos: int(p.next()) % (x.NumChildren() + 2)}
	for y := x; y.Parent != nil; y = y.Parent {
		w.at = append(w.at, y.Index())
	}
	slices.Reverse(w.at)
	if insert {
		w.xml = servingFragment(p, h.names())
	}
	w.ok = w.pos < x.NumChildren() || insert && w.pos == x.NumChildren()
	if p.next()%16 == 0 {
		w.parent, w.ok = w.parent+"/nosuch", false
	}
	for i, l := range h.lives {
		if l.batch == 64 {
			continue
		}
		prev := l.d.Snapshot()
		var (
			st  core.UpdateStats
			err error
		)
		if insert {
			st, err = l.d.Insert(w.parent, w.pos, mustFragment(t, w.xml))
		} else {
			st, err = l.d.Delete(w.parent, w.pos)
		}
		if i == 0 && w.ok && errors.Is(err, core.ErrOverflow) {
			w.ok = false // an overflow no promotion heals: the model cannot tell, the first configuration does
		}
		next := l.d.Snapshot()
		switch {
		case (err == nil) != w.ok:
			t.Fatalf("%s: %s: err %v, the model applied it: %v", l.name, w, err, w.ok)
		case err != nil && next != prev:
			t.Fatalf("%s: the failed %s published epoch %d", l.name, w, next.Epoch())
		case err != nil:
		case next.Epoch() != prev.Epoch()+1:
			t.Fatalf("%s: %s published epochs %d..%d", l.name, w, prev.Epoch()+1, next.Epoch())
		case st.FullRebuild:
			h.cov["full rebuild"]++
		default:
			checkScope(t, l.name, prev, next, w, st)
			if st.Relabeled > 0 {
				h.cov["relabeling write"]++
			}
		}
	}
	if w.ok {
		parent := h.model
		for _, i := range w.at {
			parent = parent.Child(i)
		}
		if insert {
			parent.InsertChildAt(w.pos, mustFragment(t, w.xml))
		} else {
			parent.RemoveChild(w.pos)
		}
		h.applied++
	} else {
		h.failed++
		h.cov["refused write"]++
	}
	if h.queued = append(h.queued, w); len(h.queued) == 64 {
		h.flush()
	}
}

// flush enqueues the queued writes on each batch-64 configuration, then
// waits for every ticket.
func (h *servingHarness) flush() {
	t := h.t
	ok := 0
	for _, w := range h.queued {
		if w.ok {
			ok++
		}
	}
	for _, l := range h.lives {
		if l.batch != 64 || len(h.queued) == 0 {
			continue
		}
		before := l.d.Snapshot().Epoch()
		tickets := make([]*document.Ticket, len(h.queued))
		for i, w := range h.queued {
			var err error
			if w.insert {
				tickets[i], err = l.d.EnqueueInsert(context.Background(), w.parent, w.pos, mustFragment(t, w.xml))
			} else {
				tickets[i], err = l.d.EnqueueDelete(context.Background(), w.parent, w.pos)
			}
			if err != nil {
				t.Fatalf("%s: enqueue %s: %v", l.name, w, err)
			}
		}
		for i, tk := range tickets {
			if _, err := tk.Wait(context.Background()); (err == nil) != h.queued[i].ok {
				t.Fatalf("%s: batch member %d, %s: err %v, the model applied it: %v", l.name, i, h.queued[i], err, h.queued[i].ok)
			}
		}
		if n := int(l.d.Snapshot().Epoch() - before); ok == 0 && n != 0 || ok > 0 && (n < 1 || n > ok) {
			t.Fatalf("%s: %d applied batch members published %d epochs", l.name, ok, n)
		}
	}
	h.queued = h.queued[:0]
}

// run runs q on every configuration and holds the answer to the model's: its
// node paths, or the count of a counted run.
func (h *servingHarness) run(q string, count bool) {
	t := h.t
	paths, werr := h.answer(q)
	for _, l := range h.lives {
		snap := l.d.Snapshot()
		res, plan, err := snap.QueryMetered(q, nil, nil, !count)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%s: %q: err %v, the model's %v", l.name, q, err, werr)
		}
		if err != nil {
			continue
		}
		h.cov[plan.Kind.String()+" plan"]++
		if res.Len() != len(paths) {
			t.Fatalf("%s: %q [%s]: Len %d, the model %d", l.name, q, plan.Kind, res.Len(), len(paths))
		}
		nodes, err := res.Nodes()
		if count && (nodes != nil || !errors.Is(err, query.ErrCounted)) {
			t.Fatalf("%s: %q: a counted answer gave %d nodes, err %v", l.name, q, len(nodes), err)
		}
		if count {
			continue
		}
		if got := snapshotPaths(snap, nodes); err != nil || !slices.Equal(got, paths) {
			t.Fatalf("%s: %q [%s] = %v, err %v; the model %v", l.name, q, plan.Kind, got, err, paths)
		}
	}
}

// pin keeps every configuration's current snapshot and the model's answer to
// a query, or drops the oldest pin.
func (h *servingHarness) pin(p *program) {
	b := p.next()
	if len(h.pins) == 3 || b%4 == 0 && len(h.pins) > 0 {
		h.pins = h.pins[1:]
		for _, l := range h.lives {
			l.pins = l.pins[1:]
		}
		if b%4 == 0 {
			return
		}
	}
	pn := pin{q: h.query(p), xml: xmltree.Serialize(h.model), stamps: servingStamps(h.lives[0].d.Snapshot())}
	var err error
	if pn.paths, err = h.answer(pn.q); err != nil {
		h.t.Fatalf("model: %q: %v", pn.q, err)
	}
	h.pins = append(h.pins, pn)
	for _, l := range h.lives {
		l.pins = append(l.pins, l.d.Snapshot())
	}
}

// check holds every configuration that has taken every write to the model
// and, after a step that wrote, every pinned snapshot to what it read when it
// was pinned.
func (h *servingHarness) check(wrote bool) {
	t := h.t
	xml, nodes := xmltree.Serialize(h.model), len(h.model.DocumentElement().Nodes())
	var ref *live
	var stamps []string
	var stats document.Stats
	for _, l := range h.lives {
		if l.batch == 64 && len(h.queued) > 0 {
			continue
		}
		snap := l.d.Snapshot()
		if got := xmltree.Serialize(snap.Tree()); got != xml {
			t.Fatalf("%s: epoch %d holds\n%s\nthe model\n%s", l.name, snap.Epoch(), got, xml)
		}
		if err := snap.Index().CheckSorted(); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		snap.Numbering().AssertK("a step of FuzzServingModel")
		postings, rows := make(map[string][]core.ID), make(map[string]storage.Record)
		snap.Tree().WalkFull(func(x *xmltree.Node) bool {
			if x.Parent != nil && x.Kind != xmltree.Attribute {
				t.Fatalf("%s: epoch %d publishes %s %q with a Parent", l.name, snap.Epoch(), x.Kind, x.Name)
			}
			id, ok := snap.Numbering().RUID(x)
			if ok && x.Kind == xmltree.Element {
				postings[x.Name] = append(postings[x.Name], id)
			}
			if ok {
				rows[string(id.Key())] = storage.Record{Name: x.Name, Kind: uint8(x.Kind), Value: x.Data}
			}
			return true
		})
		if l.pool > 0 { // the paged payload table follows the epoch
			err := l.d.Store().Nodes.ScanRange(nil, nil, func(key []byte, r storage.Record) bool {
				if want, ok := rows[string(key)]; !ok || r != want {
					t.Fatalf("%s: the payload row under %x is %+v, the epoch's %+v", l.name, key, r, want)
				}
				delete(rows, string(key))
				return true
			})
			if err != nil || len(rows) > 0 {
				t.Fatalf("%s: %d numbered nodes have no payload row, err %v", l.name, len(rows), err)
			}
		}
		names := make([]string, 0, len(postings))
		for name, ids := range postings {
			names = append(names, name)
			if got := snap.Index().RuidIDs(name); !slices.Equal(got, ids) {
				t.Fatalf("%s: %q postings %v, the tree's %v", l.name, name, got, ids)
			}
		}
		if sort.Strings(names); !slices.Equal(snap.Index().Names(), names) {
			t.Fatalf("%s: index names %v, the tree's %v", l.name, snap.Index().Names(), names)
		}
		ss, st := servingStamps(snap), l.d.Stats()
		if st.Nodes != nodes {
			t.Fatalf("%s: Stats %+v, the model holds %d nodes", l.name, st, nodes)
		}
		if ref == nil {
			ref, stamps, stats = l, ss, st
		} else if !slices.Equal(ss, stamps) || st.Areas != stats.Areas || st.Kappa != stats.Kappa || st.Names != stats.Names {
			t.Fatalf("%s: stamps or Stats %+v differ from %s's, %+v", l.name, st, ref.name, stats)
		}
	}
	for _, l := range h.lives {
		for i, snap := range l.pins {
			if !wrote {
				break // only a write can reach a pinned epoch
			}
			pn, num := h.pins[i], snap.Numbering()
			if xmltree.Serialize(snap.Tree()) != pn.xml || !slices.Equal(servingStamps(snap), pn.stamps) {
				t.Fatalf("%s: pinned epoch %d changed", l.name, snap.Epoch())
			}
			nodes, _, err := snap.Query(pn.q)
			if got := snapshotPaths(snap, nodes); err != nil || !slices.Equal(got, pn.paths) {
				t.Fatalf("%s: pinned epoch %d: %q = %v, err %v; it was %v", l.name, snap.Epoch(), pn.q, got, err, pn.paths)
			}
			snap.Tree().DocumentElement().Walk(func(x *xmltree.Node) bool {
				id, _ := num.RUID(x)
				var kids []*xmltree.Node
				num.VisitChildren(x, func(c *xmltree.Node) bool { kids = append(kids, c); return true })
				if y, ok := num.NodeOfID(id); !ok || y != x || !slices.Equal(kids, x.AppendChildren(nil)) {
					t.Fatalf("%s: pinned epoch %d: %v resolves to another node than %s, or its slots to other children", l.name, snap.Epoch(), id, x.Name)
				}
				return true
			})
		}
		if len(l.pins) > 0 && l.d.Snapshot() != l.pins[len(l.pins)-1] {
			h.cov["pin outlived"]++
		}
	}
}

// checkScope holds an applied write that was not a full rebuild to §3.2. It
// pairs the surviving nodes of the epochs before and after it, which differ
// only by the child at w.pos of w's parent: each survivor whose identifier
// changed is counted in st.Relabeled and lies in the update area — the area
// the parent's children are enumerated in — or roots an area directly below
// it, and so does each survivor the write copied, unless it is on the spine
// from the document node to the parent.
func checkScope(t *testing.T, name string, prev, next *document.Snapshot, w *write, st core.UpdateStats) {
	pn, nn := prev.Numbering(), next.Numbering()
	parent := prev.Tree()
	for _, i := range w.at {
		parent = parent.Child(i)
	}
	pid, _ := pn.RUID(parent)
	g, kappa := pid.Global, nn.Kappa()
	inArea := func(id core.ID) bool { return id.Global == g || id.Root && (id.Global-2)/kappa+1 == g }
	relabeled := 0
	var pair func(a, b *xmltree.Node, at []int, spine bool)
	pair = func(a, b *xmltree.Node, at []int, spine bool) {
		old, _ := pn.RUID(a)
		id, numbered := nn.RUID(b)
		if numbered && id != old {
			relabeled++
		}
		if numbered && (id != old || a != b && !spine && b.Kind != xmltree.Attribute) && !inArea(id) {
			t.Fatalf("%s: %s relabeled or copied %s %v → %v, outside area %d", name, w, b.Name, old, id, g)
		}
		for i, x := range a.Attrs() {
			pair(x, b.Attrs()[i], nil, false)
		}
		ac, bc := a.AppendChildren(nil), b.AppendChildren(nil)
		if spine && len(at) == 0 && w.insert {
			bc = slices.Delete(bc, w.pos, w.pos+1)
		} else if spine && len(at) == 0 {
			ac = slices.Delete(ac, w.pos, w.pos+1)
		}
		if len(ac) != len(bc) {
			t.Fatalf("%s: %s: %s has %d children before, %d after", name, w, a.Name, len(ac), len(bc))
		}
		for i := range ac {
			on := spine && len(at) > 0 && at[0] == i
			var rest []int
			if on {
				rest = at[1:]
			}
			pair(ac[i], bc[i], rest, on)
		}
	}
	pair(prev.Tree(), next.Tree(), w.at, true)
	if relabeled != st.Relabeled {
		t.Fatalf("%s: %s reports %d relabeled, %d survivors changed identifier", name, w, st.Relabeled, relabeled)
	}
}

// servingAxes are the axes a step takes besides child and descendant; the
// first four are unbounded, quadratic over a wide shelf, unless they stop at
// a position.
var servingAxes = []string{"following-sibling::", "preceding-sibling::", "following::", "preceding::",
	"ancestor::", "parent::", "descendant::", "self::"}

// query draws one or two absolute paths, now and then ending in a text() or
// attribute step.
func (h *servingHarness) query(p *program) string {
	q := h.path(p, true, 0)
	switch b := p.next(); b % 12 {
	case 0:
		q += "/text()"
	case 1:
		q += "/@" + []string{"a", "id", "floor"}[b/12%3]
	case 2:
		q += " | " + h.path(p, true, 0)
	}
	return q
}

// path draws up to three steps, a few with a positional, last() or branch
// predicate (branches nest twice at most). The first step of an absolute path
// and most later ones follow the label path of a model element down, so that
// its chains match and run as joins and twigs; the others are .., * or a name
// the model may not hold, now and then on an axis that climbs or crosses the
// areas the writes touched.
func (h *servingHarness) path(p *program, abs bool, depth int) string {
	names := h.names()
	var chain []string
	if abs {
		els := h.model.DocumentElement().Elements()
		for x := els[int(p.next())%len(els)]; x.Kind == xmltree.Element; x = x.Parent {
			chain = append(chain, x.Name)
		}
		slices.Reverse(chain)
	}
	var sb strings.Builder
	for i, steps := 0, 1+int(p.next()%3); i < steps; i++ {
		b := p.next()
		sep, kind, axis := []string{"/", "//"}[b&1], b>>1&7, -1
		switch {
		case i > 0 && kind == 0:
			sb.WriteString(sep + "..")
			continue
		case (kind >= 3 || i == 0) && len(chain) > 0:
			skip := min(int(p.next()%3), len(chain)-1)
			if skip > 0 {
				sep = "//"
			}
			sb.WriteString(sep + chain[skip])
			chain = chain[skip+1:]
		default:
			if abs || i > 0 {
				sb.WriteString(sep)
			}
			if kind == 2 {
				axis = int(b>>4) % len(servingAxes)
				sb.WriteString(servingAxes[axis])
			}
			if kind == 1 {
				sb.WriteString("*")
			} else {
				sb.WriteString(names[int(p.next())%len(names)])
			}
		}
		switch c := p.next(); {
		case c%16 == 0 || axis >= 0 && axis < 4:
			fmt.Fprintf(&sb, "[%d]", 1+c/16%3)
		case c%16 == 1:
			sb.WriteString("[last()]")
		case c%16 <= 4 && depth < 2:
			sb.WriteString("[" + h.path(p, false, depth+1) + "]")
		}
	}
	return sb.String()
}

// servingFragment draws an element named from names, with an attribute, text
// or children now and then.
func servingFragment(p *program, names []string) string {
	b := p.next()
	n1, n2 := names[int(p.next())%len(names)], names[int(p.next())%len(names)]
	return []string{
		"<" + n1 + "/>",
		fmt.Sprintf("<%s>t%d</%s>", n1, b, n1),
		fmt.Sprintf(`<%s a="%d"><%s/></%s>`, n1, b, n2, n1),
		fmt.Sprintf("<%s><%s><%s/></%s><%s/></%s>", n1, n2, n1, n2, n2, n1),
		fmt.Sprintf("<%s><%s>x</%s></%s>", n1, n2, n2, n1),
	}[b%5]
}

// names returns the model's element names, sorted, and two it may not hold,
// which inserts bring in and queries probe for.
func (h *servingHarness) names() []string {
	names := []string{"v", "w"}
	for _, x := range h.model.DocumentElement().Elements() {
		names = append(names, x.Name)
	}
	sort.Strings(names)
	return slices.Compact(names)
}

// positionalPath names x as a client does: /lib/name[k]/... with k counting
// the same-name element siblings.
func positionalPath(x *xmltree.Node) string {
	var steps []string
	for ; x.Parent.Kind == xmltree.Element; x = x.Parent {
		steps = append(steps, fmt.Sprintf("%s[%d]", x.Name, 1+slices.Index(x.Parent.ChildElements(x.Name), x)))
	}
	steps = append(steps, x.Name)
	slices.Reverse(steps)
	return "/" + strings.Join(steps, "/")
}

func servingStamps(snap *document.Snapshot) []string {
	var out []string
	snap.Tree().WalkFull(func(x *xmltree.Node) bool {
		out = append(out, fmt.Sprint(x.Num()))
		return true
	})
	return out
}

// answer is the model's answer to q: its node paths, in document order.
func (h *servingHarness) answer(q string) ([]string, error) {
	nodes, err := xpath.NewEngine(h.model, xpath.PointerNavigator{}).Query(q)
	paths := make([]string, len(nodes))
	for i, n := range nodes {
		paths[i] = n.Path()
	}
	return paths, err
}

func snapshotPaths(snap *document.Snapshot, nodes []*xmltree.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = snap.Path(n)
	}
	return out
}

func mustFragment(t *testing.T, xml string) *xmltree.Node {
	x, err := xmltree.ParseFragment(xml)
	if err != nil {
		t.Fatalf("fragment %s: %v", xml, err)
	}
	return x
}

// program reads a fuzz input; past its end every byte reads 0.
type program struct {
	b []byte
	i int
}

func (p *program) next() byte {
	p.i++
	if p.i > len(p.b) {
		return 0
	}
	return p.b[p.i-1]
}
