// Package document is the serving facade over the paper's machinery: one
// Document owns the parsed XML tree, its 2-level ruid numbering, the
// element-name index, the DataGuide structural summary and the cost-based
// query planner, behind a single Open/Query/Insert/Delete/Snapshot API —
// callers no longer hand-assemble xmltree + core + index + query.
//
// # Concurrency model
//
// The Document is safe for concurrent use by any number of readers and
// writers, with snapshot isolation, and it holds one tree: the epochs.
//
//   - Readers pin an immutable epoch with Snapshot (or implicitly through
//     Query). An epoch bundles a tree, a numbering (κ, the table K, the
//     per-area clustered slot lists), the index postings and the guide;
//     nothing reachable from a published epoch is ever written again, so
//     readers share epochs freely without locks.
//   - Writers serialize on an internal mutex. A write forks the newest
//     epoch's numbering (core.Numbering.Fork), resolves its target on the fork
//     with xpath.SchemeNavigator, and applies the paper's incremental §3.2
//     update to it: an insert or delete re-enumerates only the affected
//     UID-local area (UpdateStats reports the scope), so identifiers outside
//     the update area survive across epochs. The fork copies what the update
//     writes before writing it — the relabeled nodes, the spine above them,
//     their K rows — and shares the rest with the epoch it came from. The
//     writer then publishes the fork as the next epoch with one atomic
//     pointer store. There is no writer-private second copy of the document.
//
// A reader holding an old epoch keeps querying it consistently — queries
// racing updates observe either the pre- or post-update document, never a
// mix.
//
// # One mutation pipeline
//
// Every write is a batch. EnqueueInsert and EnqueueDelete build one queued
// mutation and submit it; Insert and Delete are the same call followed by
// Ticket.Wait. With a commit loop running (EnableGroupCommit, group.go) the
// mutation is WAL-logged and applied in queue order alongside whatever else
// is queued; without one it is applied on the spot as a batch of one. Either
// way the batch goes through applyBatchLocked — one fork, each member
// resolved on the state the members before it left and individually
// area-confined, so a batch equals its members applied one by one — and ONE
// function, publishLocked, installs the epoch that covers it. WAL replay
// submits the recovered records as one batch through the same two functions.
// There is no other way to move the snapshot pointer (the cold install in
// OpenBundle excepted), so durability and counter accounting each have
// exactly one implementation.
//
// # Publication
//
// Publication is area-confined, mirroring the paper's update-scope claim.
// The tree and the numbering of the next epoch are the fork as the batch
// left it; the index is the previous epoch's with the batch's relabels,
// drops and inserts spliced in (index.ApplyDelta, over the endpoints of each
// node's identifier chain), the DataGuide one folded copy per batch
// (dataguide.Batch). Every untouched subtree, K row and posting block is
// shared with the previous epoch by pointer, so publication cost scales with
// the area budget, not the document size. Two invariants make the sharing
// safe:
//
//   - Deep immutability: no node, slot array, posting list or guide node
//     reachable from a published epoch is ever written again. Any node
//     whose identifier or child list changes is the fork's own copy. Under
//     RUID_DEBUG each publication re-checks the previous epoch's table K
//     against its stamps.
//   - No upward pointer: a published node carries no Parent, except an
//     attribute, which is copied with its element and so names the element
//     its epoch holds. Upward navigation goes through the numbering's
//     identifier arithmetic (RParent, Lemma 1), and a subtree shared by two
//     epochs keeps neither's spine alive. The fork's copies come without a
//     Parent, each inserted subtree is detached as its batch counts it, and
//     a full publication detaches the whole tree (detach); under RUID_DEBUG
//     publication re-checks the tree it installs.
//
// Full rebuild is a branch inside publishLocked, not a sibling: the first
// epoch, a batch that healed a local-index overflow by re-partitioning
// (reported as FullRebuild; core has cloned the whole tree for it) and an
// incremental assembly that tripped an internal invariant build index and
// guide from scratch over the working tree.
//
// # Write-failure atomicity
//
// A failed mutation is a no-op: core computes an update before it commits
// any of it, so a failed member leaves the fork reading as it did, drops out
// of its batch while the others land, and a batch with no surviving member
// drops its fork and publishes nothing — the current snapshot stays the very
// one it was. Readers never observe a partial write.
package document

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Options configure Open.
type Options struct {
	// Partition controls UID-local area selection for the ruid numbering.
	// Zero fields select serving-oriented defaults individually (area
	// budget 64, §2.3 fan-out adjustment on); explicitly set fields are
	// honored. Note AdjustFanout defaults to true only when the whole
	// struct is zero: a caller who sets any partition field makes the
	// fan-out decision too.
	Partition core.PartitionConfig
	// WithAttrs numbers attribute nodes too (§4: "all components of XML
	// document trees").
	WithAttrs bool
	// Observe, when non-nil, turns the runtime observability layer on:
	// planner, executor and publication metrics are recorded into this
	// registry for the document's whole lifetime. nil (the default) leaves
	// every hot path on its unobserved branch.
	Observe *obs.Registry
}

func (o Options) coreOptions() core.Options {
	p := o.Partition
	if p == (core.PartitionConfig{}) {
		p = core.PartitionConfig{MaxAreaNodes: 64, AdjustFanout: true}
	} else if p.MaxAreaNodes == 0 {
		p.MaxAreaNodes = 64
	}
	return core.Options{Partition: p, WithAttrs: o.WithAttrs}
}

// Document is a numbered XML document that serves concurrent queries while
// accepting structural updates. Create one with Open, OpenString or
// FromTree; the zero value is not usable.
type Document struct {
	opts core.Options
	exec *exec.Executor // schedules every epoch's identifier pipelines
	reg  *obs.Registry  // nil when unobserved
	dm   *docMetrics    // resolved metric pointers; nil when unobserved

	mu sync.Mutex // serializes writers and epoch publication

	// readonly marks a cold-opened document (OpenBundle): nothing about its
	// tree forbids a fork, but serving a bundle read-write belongs with the
	// checkpoint-plus-WAL-tail recovery it needs to be worth anything
	// (ROADMAP item 4), so until then it refuses writes.
	readonly bool

	epoch uint64
	cur   atomic.Pointer[Snapshot]

	// grp is the group-commit write path (group.go), nil until
	// EnableGroupCommit. Held in an atomic pointer so Enqueue* never takes
	// d.mu on the intake side.
	grp atomic.Pointer[groupCommitter]
}

// Snapshot is one immutable epoch of a Document: a consistent bundle of
// tree, numbering, name index, DataGuide and planner. Snapshots are safe
// for concurrent use and stay valid (and unchanged) after later updates.
// Successive epochs structurally share untouched subtrees; see the package
// comment for the navigation invariant this implies.
type Snapshot struct {
	epoch   uint64
	tree    *xmltree.Node
	num     *core.Numbering
	planner *query.Planner

	// nodes is the canonical node count of this epoch under the facade's
	// accounting rule: non-attribute nodes from the root element down —
	// exactly the population detach counts — and depths the sum of their
	// depths, the planner's cardinality statistics. The next epoch's are
	// maintained from these across its batch, so neither Stats nor an
	// incremental publication re-walks the tree (the numbering's Size
	// additionally counts attributes when the document was opened
	// WithAttrs).
	nodes, depths int
}

// Open parses an XML document from r and numbers it.
func Open(r io.Reader, opts Options) (*Document, error) {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	return FromTree(doc, opts)
}

// OpenString parses an XML document held in a string and numbers it.
func OpenString(src string, opts Options) (*Document, error) {
	doc, err := xmltree.ParseString(src)
	if err != nil {
		return nil, err
	}
	return FromTree(doc, opts)
}

// FromTree numbers an already-parsed tree. The Document takes ownership of
// doc — it becomes the tree of the first epoch — and the caller must not
// mutate it afterwards.
func FromTree(doc *xmltree.Node, opts Options) (*Document, error) {
	d := &Document{
		opts: opts.coreOptions(),
		exec: exec.New(exec.Config{Observe: opts.Observe}),
		reg:  opts.Observe,
		dm:   newDocMetrics(opts.Observe),
	}
	num, err := core.Build(doc, d.opts)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.publishLocked(&working{num: num}, nil)
	return d, nil
}

// working is the state a batch works on and then publishes: the private
// successor of the newest epoch, a fork of the epoch's numbering, which
// shares the epoch's tree and copies what it writes. The first epoch's is the
// parsed tree under its first numbering.
type working struct {
	num *core.Numbering

	// deltas are the applied members' deltas in application order and born the
	// elements they inserted.
	deltas []*core.Delta
	born   map[*xmltree.Node]struct{}

	// nodes and depths are the newest epoch's statistics (Snapshot.nodes)
	// with each applied member's subtree added or taken away.
	nodes, depths int
}

// doc returns the working tree's document node (a fork's moves as it copies).
func (w *working) doc() *xmltree.Node { return w.num.Doc() }

// publishLocked is the one function that installs an epoch: the working
// state w becomes the next snapshot. guide is the batch's eagerly folded
// DataGuide (nil when a fold reported an inconsistency; the assembly then
// rebuilds it from the tree). The epoch's index and guide are assembled
// incrementally — one index patch, one guide swap over the union of the
// deltas' update scopes — whenever they can be: a previous epoch exists,
// there are deltas and none of them is a full rebuild. Otherwise, and when
// incremental assembly trips an internal invariant (a panic under
// RUID_DEBUG), they are built from scratch over w's tree, which always
// yields a consistent epoch. Callers hold d.mu.
func (d *Document) publishLocked(w *working, guide *dataguide.Guide) {
	var start time.Time
	if d.dm != nil {
		start = time.Now()
	}
	var (
		snap *Snapshot
		st   index.DeltaStats
		err  error
	)
	prev := d.cur.Load()
	if prev != nil && len(w.deltas) > 0 && !slices.ContainsFunc(w.deltas, func(delta *core.Delta) bool { return delta.Full }) {
		// Incremental assembly fails only on a broken internal invariant. It
		// then leaves snap nil and has committed nothing: under RUID_DEBUG
		// that is a panic naming the error, otherwise the full build below
		// recovers from it and doc.publish_full counts the fallback.
		if snap, st, err = d.assembleBatchLocked(prev, w, guide); err != nil && debugChecks {
			panic(fmt.Sprintf("document: epoch %d: incremental assembly: %v", d.epoch+1, err))
		}
	}
	full := snap == nil
	if full {
		snap = d.assembleFullLocked(w)
	}
	if debugChecks {
		snap.tree.Walk(func(x *xmltree.Node) bool {
			if x.Parent != nil {
				panic(fmt.Sprintf("document: epoch %d would publish %s %q with a Parent", d.epoch+1, x.Kind, x.Name))
			}
			if !x.UniformSound() { // t[k] would read the wrong child's slot
				panic(fmt.Sprintf("document: epoch %d would publish %s %q with a uniform bit its children belie", d.epoch+1, x.Kind, x.Name))
			}
			return true
		})
	}
	w.num.Seal()
	d.epoch++
	snap.epoch = d.epoch
	d.cur.Store(snap)
	if prev != nil {
		// Nothing published is ever written: a write that skipped own shows
		// here, as a stamp of the previous epoch disagreeing with its table K.
		prev.num.AssertK("publishing the next epoch")
	}
	d.noteEpochLocked(full, st, time.Since(start))
}

// snapshotOf wires a planner over tree to the document's executor and
// observer and wraps it as a snapshot; publishLocked stamps the epoch
// number.
func (d *Document) snapshotOf(tree *xmltree.Node, num *core.Numbering, ix *index.NameIndex, guide *dataguide.Guide, nodes, depths int) *Snapshot {
	planner := query.NewWithState(tree, num, ix, guide, nodes, depths)
	planner.SetExecutor(d.exec)
	planner.SetObserver(d.reg)
	return &Snapshot{tree: tree, num: num, planner: planner, nodes: nodes, depths: depths}
}

// assembleFullLocked builds the next epoch's index and guide from scratch
// over w's tree, sharing neither with the previous epoch. The walk that
// detaches the tree recounts its statistics. Callers hold d.mu.
func (d *Document) assembleFullLocked(w *working) *Snapshot {
	tree := w.doc()
	nodes, depths := detachTree(tree)
	return d.snapshotOf(tree, w.num, index.Build(w.num.Root(), w.num), dataguide.Build(tree), nodes, depths)
}

// assembleBatchLocked builds the next epoch incrementally from the previous
// one: tree and numbering are the fork as the batch left it, the index is
// prev's patched with the batch's edits. Callers hold d.mu.
func (d *Document) assembleBatchLocked(prev *Snapshot, w *working, guide *dataguide.Guide) (*Snapshot, index.DeltaStats, error) {
	ix, st, err := applyIndexBatch(prev, w)
	if err != nil {
		return nil, st, err
	}
	tree := w.doc()
	if guide == nil {
		// A fold inconsistency was detected mid-batch; the guide holds label
		// paths and counts only, so rebuilding from the tree is safe.
		guide = dataguide.Build(tree)
	}
	return d.snapshotOf(tree, w.num, ix, guide, w.nodes, w.depths), st, nil
}

// applyIndexBatch composes the batch's per-mutation deltas into one set of
// per-name posting edits against prev's index. Identifiers may be relabeled
// several times inside one batch; the index only needs the ENDPOINTS of
// each chain — a node's first pre-batch identifier and its final one (the
// stamp it carries once the batch is through). Three cases fold out:
//
//   - pre-existing node, still present: relabel firstOld → final (dropped
//     when they coincide — the chain returned to its origin);
//   - pre-existing node, gone: remove firstOld;
//   - node inserted by this batch: only its final identifier is inserted,
//     and only if it survived the batch (a batch-internal insert-then-
//     delete leaves no trace — its intermediate identifiers never existed
//     in any published posting list).
//
// A node is pre-existing exactly when the batch did not bear it (w.born).
// The index rejects an edit of an identifier prev never held, so the test
// has to be exact — a node inserted and then detached inside the batch
// (alone, or below an inserted subtree that stays) must not reach it. The
// nodes named are the fork's: a delta names a relabeled node by the copy
// that carries the new stamp, and the fork keeps that copy for the rest of
// the batch, so one node is one key.
func applyIndexBatch(prev *Snapshot, w *working) (*index.NameIndex, index.DeltaStats, error) {
	// First pre-batch identifier of every pre-existing element the batch
	// touched, in application order, and the elements it detached.
	orig := make(map[*xmltree.Node]core.ID)
	gone := make(map[*xmltree.Node]bool)
	note := func(x *xmltree.Node, id core.ID) {
		if _, born := w.born[x]; born || x.Kind != xmltree.Element {
			return
		}
		if _, seen := orig[x]; !seen {
			orig[x] = id
		}
	}
	for _, delta := range w.deltas {
		for _, r := range delta.Relabels {
			note(r.Node, r.Old)
		}
		for _, p := range delta.Dropped {
			note(p.Node, p.ID)
			gone[p.Node] = true
		}
	}
	edits := make(map[string]*index.NameDelta)
	edit := func(name string) *index.NameDelta {
		nd := edits[name]
		if nd == nil {
			nd = &index.NameDelta{}
			edits[name] = nd
		}
		return nd
	}
	for x, old := range orig {
		if gone[x] {
			nd := edit(x.Name)
			nd.Removed = append(nd.Removed, old)
		} else if cur, _ := w.num.RUID(x); cur != old {
			nd := edit(x.Name)
			nd.Relabeled = append(nd.Relabeled, index.IDPair{Old: old, New: cur})
		}
	}
	for x := range w.born {
		if !gone[x] {
			id, _ := w.num.RUID(x)
			nd := edit(x.Name)
			nd.Inserted = append(nd.Inserted, id)
		}
	}
	return prev.Index().ApplyDelta(w.num, edits)
}

// Snapshot pins the current epoch. The returned snapshot never changes;
// queries on it are wait-free with respect to writers.
func (d *Document) Snapshot() *Snapshot { return d.cur.Load() }

// Query plans and executes an XPath query against the current epoch,
// returning the result node-set in document order (nodes belong to that
// epoch's immutable tree) and the plan that produced it.
func (d *Document) Query(q string) ([]*xmltree.Node, query.Plan, error) {
	return d.Snapshot().Query(q)
}

// Insert attaches child (possibly a whole subtree) as the pos-th child of
// the first element matched by parentPath (an XPath location path,
// evaluated in document order against the latest state) and returns once
// the epoch carrying it is published: EnqueueInsert followed by Ticket.Wait.
// It returns the paper's §3.2 relabeling statistics. The Document takes
// ownership of child on success; a failed insert leaves the document
// unchanged (no epoch is published) and ownership of the detached child
// with the caller.
func (d *Document) Insert(parentPath string, pos int, child *xmltree.Node) (core.UpdateStats, error) {
	return waitVisible(d.EnqueueInsert(context.Background(), parentPath, pos, child))
}

// Delete removes (cascading) the pos-th child of the first element matched
// by parentPath and returns once the epoch without it is published. A
// failed delete leaves the document unchanged and publishes nothing.
func (d *Document) Delete(parentPath string, pos int) (core.UpdateStats, error) {
	return waitVisible(d.EnqueueDelete(context.Background(), parentPath, pos))
}

func waitVisible(tk *Ticket, err error) (core.UpdateStats, error) {
	if err != nil {
		return core.UpdateStats{}, err
	}
	return tk.Wait(context.Background())
}

// detach clears the Parent of x and of every non-attribute node below it, as
// publication must (see the package notes), and counts those nodes and sums
// their depths, with x itself at the given depth. A node without a Parent is
// only read: it may be one an epoch holds.
func detach(x *xmltree.Node, depth int) (count, depths int) {
	if x.Parent != nil {
		x.Parent = nil
	}
	count, depths = 1, depth
	for i := 0; i < x.NumChildren(); i++ {
		cc, cd := detach(x.Child(i), depth+1)
		count += cc
		depths += cd
	}
	return count, depths
}

// detachTree detaches the whole tree under doc, comments and processing
// instructions beside the root element included, and returns the count and
// depth sum of its nodes from the root element down.
func detachTree(doc *xmltree.Node) (nodes, depths int) {
	if doc.Kind != xmltree.Document {
		return detach(doc, 0)
	}
	root := doc.DocumentElement()
	for i := 0; i < doc.NumChildren(); i++ {
		c := doc.Child(i)
		if cn, cd := detach(c, 1); c == root {
			nodes, depths = cn, cd
		}
	}
	return nodes, depths
}

// debugChecks gates publication's O(n) check that the tree it installs
// carries no Parent below the document node and no uniform bit
// (xmltree.Node.UniformChildren) its children belie, and turns a rejected
// incremental assembly from a silent full rebuild into a panic. Seeded from
// RUID_DEBUG like the core, index and query checks.
var debugChecks = os.Getenv("RUID_DEBUG") != ""

// findOne resolves a writer's target path on the working state with the
// fork's own identifier arithmetic: between two members of a batch the fork
// is as consistent as any epoch.
func (w *working) findOne(path string) (*xmltree.Node, error) {
	res, err := xpath.NewEngine(w.doc(), xpath.SchemeNavigator{S: w.num}).Query(path)
	if err != nil {
		return nil, err
	}
	for _, n := range res {
		if n.Kind == xmltree.Element {
			return n, nil
		}
	}
	return nil, fmt.Errorf("document: no element matches %q", path)
}

// elementPath returns the names of the elements from the root element down
// to x, x included.
func (w *working) elementPath(x *xmltree.Node) []string {
	names := []string{x.Name}
	xpath.SchemeNavigator{S: w.num}.Ancestors(x, func(a *xmltree.Node) bool {
		names = append(names, a.Name)
		return true
	})
	slices.Reverse(names)
	return names
}

// Stats summarizes the current epoch.
type Stats struct {
	Epoch int   // epochs published so far (1 = the initial one)
	Nodes int   // non-attribute nodes from the root element down
	Areas int   // UID-local areas (rows of K)
	Kappa int64 // frame fan-out κ
	Names int   // distinct indexed element names
}

// Stats returns a summary of the current epoch. Nodes is the snapshot's
// maintained count, the same population detach counts: no per-call tree
// walk.
func (d *Document) Stats() Stats {
	s := d.Snapshot()
	return Stats{
		Epoch: int(s.epoch),
		Nodes: s.nodes,
		Areas: s.num.AreaCount(),
		Kappa: s.num.Kappa(),
		Names: s.Index().NameCount(),
	}
}

// Epoch returns the snapshot's epoch number (monotonically increasing per
// Document, starting at 1).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Tree returns the snapshot's immutable document tree. Callers must not
// mutate it (it is shared by every reader of this epoch, and its untouched
// subtrees by later epochs). Only its attributes carry a Parent: navigate
// upward through the numbering, or climb a Clone.
func (s *Snapshot) Tree() *xmltree.Node { return s.tree }

// Path returns the slash path (xmltree.Node.Path's format) of n, a node of
// this epoch's tree, as this epoch holds it. The ancestors come from the
// epoch's own numbering (rparent) and each step's position from that
// ancestor's child list. An attribute's step up is its Parent: it is copied
// with its element, so that is the element this epoch holds.
func (s *Snapshot) Path(n *xmltree.Node) string {
	var steps []string
	if n.Kind == xmltree.Attribute {
		steps = append(steps, n.PathStep(n.Parent))
		n = n.Parent
	}
	s.num.VisitAncestors(n, func(p *xmltree.Node) bool {
		steps = append(steps, n.PathStep(p))
		n = p
		return true
	})
	if n != s.tree {
		steps = append(steps, n.PathStep(s.tree)) // the root element, under the unnumbered Document node
	}
	return xmltree.JoinPath(steps)
}

// Numbering returns the snapshot's ruid numbering.
func (s *Snapshot) Numbering() *core.Numbering { return s.num }

// Index returns the snapshot's element-name index.
func (s *Snapshot) Index() *index.NameIndex { return s.planner.Index() }

// Guide returns the snapshot's DataGuide structural summary.
func (s *Snapshot) Guide() *dataguide.Guide { return s.planner.Guide() }

// Query plans and executes an XPath query against this epoch, returning
// the result node-set in document order and the plan used. Safe for
// concurrent use.
func (s *Snapshot) Query(q string) ([]*xmltree.Node, query.Plan, error) {
	return s.planner.Run(q)
}

// QueryMetered is the general form of Query. It returns the answer as a
// query.Result: Len counts it on identifiers alone, and Nodes — the only
// step that touches the tree — is the caller's to take or leave. The
// planner charges postings scanned and result rows materialized against m
// as it executes, and a query that exceeds a bound (or m's context)
// terminates early inside the join kernels with the matching sentinel —
// budget.ErrPostingsBudget, budget.ErrResultBudget, or the context's own
// error — and an empty Result; the caller inspects m afterwards for
// consumption. tr collects the per-stage execution spans (EXPLAIN ANALYZE).
// A nil meter runs unbudgeted; a nil trace untraced. resolve says whether
// the caller will call Nodes: without it an untraced query is only counted,
// keeping no answer (query.Planner.RunMetered).
func (s *Snapshot) QueryMetered(q string, tr *obs.Trace, m *budget.Meter, resolve bool) (query.Result, query.Plan, error) {
	return s.planner.RunMetered(q, tr, m, resolve)
}

// Plan parses the query and reports the strategy the planner would choose,
// without executing it.
func (s *Snapshot) Plan(q string) (query.Plan, error) {
	return s.planner.Plan(q)
}
