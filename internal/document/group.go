package document

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Group-commit write path. Epoch publication dominates the cost of a
// single-mutation write: the §3.2 re-enumeration touches one UID-local
// area, but publishing it still clones the root spine, re-encodes the
// touched posting lists and swaps the snapshot pointer. Group commit
// amortizes exactly that part. Writers enqueue mutations into a bounded
// intake queue (optionally behind a WAL, where an Enqueue return IS the
// durability acknowledgment); a commit loop drains up to MaxBatch of them,
// applies each to one fork of the newest epoch one at a time — every
// mutation still area-confined, each all-or-nothing — and then publishes the
// fork as ONE epoch: one spine copy, one index patch, one atomic pointer
// store, however many mutations rode along (a node or K row the batch writes
// twice is copied once).
//
// Durability and visibility are deliberately split: Enqueue returns when
// the mutation is durable (per the WAL's sync policy), Ticket.Wait returns
// when it is visible (its epoch published). Readers keep pinning epochs
// wait-free through the atomic snapshot pointer and never observe a
// partially applied batch — the commit loop publishes after the whole
// batch's records are on disk (WAL.SyncTo) and after every member was
// applied, so a crash at any point either replays a mutation from the log
// or loses an unacknowledged one, never tears a batch across epochs.

// GroupConfig configures EnableGroupCommit.
type GroupConfig struct {
	// MaxBatch caps the mutations coalesced into one epoch publication.
	// 0 selects the default, 64.
	MaxBatch int
	// MaxDelay is how long the commit loop lingers for followers after the
	// first mutation of a batch arrives, when writers are concurrent: the
	// loop lingers only if its previous batch held more than one mutation or
	// more than one is in flight (between Enqueue's entry and its batch's
	// decision) as it takes the first. A lone writer's mutation commits the
	// moment it is dequeued. 0 selects the default, 500µs; a negative value
	// disables lingering (publish whatever is queued).
	MaxDelay time.Duration
	// QueueDepth bounds the intake queue; a full queue blocks Enqueue
	// (admission backpressure). 0 selects 4×MaxBatch.
	QueueDepth int
	// WAL, when non-nil, makes enqueued mutations durable before they are
	// acknowledged: each mutation is appended as one record before it
	// enters the queue, and the document takes ownership of the WAL
	// (DisableGroupCommit closes it). Replay an existing log with
	// ReplayWAL before enabling group commit over it.
	WAL *storage.WAL
}

func (cfg GroupConfig) withDefaults() GroupConfig {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 500 * time.Microsecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.MaxBatch
	}
	return cfg
}

// ErrStorage marks a write that failed below the document — a WAL append or
// fsync — as opposed to a mutation the document rejected (bad path, position
// out of range). Test with errors.Is; the cause is wrapped alongside.
var ErrStorage = errors.New("document: storage failure")

// ErrDocumentClosed reports an Enqueue racing DisableGroupCommit: the commit
// loop it was headed for is shutting down. The mutation was neither logged
// nor queued; retry it.
var ErrDocumentClosed = errors.New("document: group commit closed")

// pendingOp is one queued mutation.
type pendingOp struct {
	insert bool
	parent string
	pos    int
	child  *xmltree.Node // insert only
	seq    int64         // WAL sequence number; 0 without a WAL

	// rc is the enqueuing request's trace, stamped with pipeline stages as
	// the op crosses goroutines (enqueue→wal_append→fsync_done on the
	// writer, dequeue→merged→published→visible on the commit loop). Nil
	// for untraced writers and WAL replay; every Stamp no-ops then.
	rc *obs.RequestCtx

	stats core.UpdateStats
	err   error
	done  chan struct{}
}

// Ticket is a writer's handle on one enqueued mutation. Enqueue returning
// the ticket is the durability acknowledgment (per the WAL sync policy);
// Wait blocks until the mutation is visible — its batch's epoch published —
// and reports the mutation's own outcome.
type Ticket struct{ op *pendingOp }

// Done is closed when the mutation's batch has been decided (published or
// failed).
func (t *Ticket) Done() <-chan struct{} { return t.op.done }

// Wait blocks until the mutation is visible or ctx ends, and returns its
// §3.2 relabeling statistics. A batch member that failed mid-merge gets its
// own error while the rest of the batch publishes (atomicity is per
// mutation); a failed WAL fsync fails every member.
func (t *Ticket) Wait(ctx context.Context) (core.UpdateStats, error) {
	select {
	case <-t.op.done:
		return t.op.stats, t.op.err
	case <-ctx.Done():
		return core.UpdateStats{}, ctx.Err()
	}
}

// groupMetrics are the write-path instruments (nil when unobserved).
type groupMetrics struct {
	batchSize *obs.Histogram
	batches   *obs.Counter
	applied   *obs.Counter
	failed    *obs.Counter
	enqueued  *obs.Counter

	// queueDepth is the intake backlog and pipelineDepth the backlog plus the
	// batch being committed. Plain gauges set by the commit loop, not
	// RegisterFunc closures: the registry is shared by every document of a
	// server and never unregisters, so a closure would report — and pin —
	// whichever document registered first.
	queueDepth    *obs.Gauge
	pipelineDepth *obs.Gauge

	// walAppends, walFsyncs and walBytes mirror the WAL's own counts. For
	// the reason above they are counters each commit loop adds its WAL's
	// growth to (mirrorWAL), so they sum over the server's documents.
	walAppends, walFsyncs, walBytes *obs.Counter
}

type groupCommitter struct {
	d   *Document
	cfg GroupConfig

	// emu orders the WAL append and the queue send as one atomic step, so
	// the queue drains in WAL sequence order and a crash-recovery replay
	// applies exactly the live application order. The durability wait
	// happens outside emu — that is where group fsyncs coalesce.
	emu  sync.Mutex
	ch   chan *pendingOp
	quit chan struct{}
	done chan struct{}

	gm *groupMetrics

	walSeen storage.WALStats // what mirrorWAL has added so far

	// inflight counts the ops between submit's entry and the decision of
	// their batch, and lastBatch is the size of the loop's previous batch
	// (the loop's own): the two signals fill lingers on.
	inflight  atomic.Int64
	lastBatch int
}

// EnableGroupCommit starts the document's commit loop: from here on every
// mutation (EnqueueInsert, EnqueueDelete, and Insert/Delete on top of them)
// is logged to cfg.WAL, queued, and coalesced with its neighbours into
// batched epoch publications. Fails on cold-opened (read-only) documents
// and when already enabled.
func (d *Document) EnableGroupCommit(cfg GroupConfig) error {
	if err := d.writable(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	gc := &groupCommitter{
		d:    d,
		cfg:  cfg,
		ch:   make(chan *pendingOp, cfg.QueueDepth),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	if !d.grp.CompareAndSwap(nil, gc) {
		return errors.New("document: group commit already enabled")
	}
	if d.reg != nil {
		gc.gm = &groupMetrics{
			batchSize: d.reg.Histogram("write.batch_size"),
			batches:   d.reg.Counter("write.batches"),
			applied:   d.reg.Counter("write.applied"),
			failed:    d.reg.Counter("write.failed"),
			enqueued:  d.reg.Counter("write.enqueued"),

			queueDepth:    d.reg.Gauge("write.queue_depth"),
			pipelineDepth: d.reg.Gauge("write.pipeline_depth"),
		}
		if cfg.WAL != nil {
			gc.gm.walAppends = d.reg.Counter("write.wal_appends")
			gc.gm.walFsyncs = d.reg.Counter("write.wal_fsyncs")
			gc.gm.walBytes = d.reg.Counter("write.wal_bytes")
			gc.walSeen = cfg.WAL.Stats() // a replay before the loop is not the loop's
		}
	}
	go gc.loop()
	return nil
}

// DisableGroupCommit flushes every queued mutation, stops the commit loop
// and closes the WAL (if any). Safe to call when not enabled.
func (d *Document) DisableGroupCommit() error {
	gc := d.grp.Swap(nil)
	if gc == nil {
		return nil
	}
	gc.emu.Lock()
	close(gc.quit)
	gc.emu.Unlock()
	<-gc.done
	if gc.cfg.WAL != nil {
		err := gc.cfg.WAL.Close()
		gc.mirrorWAL() // the loop has exited: the closing fsync is the last
		return err
	}
	return nil
}

// Close releases the document's background resources: today that is the
// group-commit loop and its WAL. Queries against already-pinned snapshots
// stay valid.
func (d *Document) Close() error { return d.DisableGroupCommit() }

// EnqueueInsert submits an insert to the mutation pipeline and returns its
// ticket. With a commit loop running it returns once the mutation is durable
// (per the WAL sync policy; immediately without a WAL) and visibility — and
// the §3.2 statistics — come from Ticket.Wait. Without one the mutation is
// applied here as a batch of one, and the returned ticket is already
// decided. A non-nil error means the mutation never reached the queue,
// except a WAL fsync failure (which also returns the ticket), where the
// record is queued and may already be durable.
//
// A request trace in ctx (obs.WithRequest) rides the ticket through the
// pipeline and collects the per-stage write breakdown. ctx is NOT a
// cancellation handle — enqueue-side blocking (backpressure, the durability
// wait) is bounded by the write path itself.
func (d *Document) EnqueueInsert(ctx context.Context, parentPath string, pos int, child *xmltree.Node) (*Ticket, error) {
	return d.submit(&pendingOp{insert: true, parent: parentPath, pos: pos, child: child,
		rc: obs.RequestFrom(ctx), done: make(chan struct{})})
}

// EnqueueDelete submits a delete to the mutation pipeline; see
// EnqueueInsert.
func (d *Document) EnqueueDelete(ctx context.Context, parentPath string, pos int) (*Ticket, error) {
	return d.submit(&pendingOp{parent: parentPath, pos: pos,
		rc: obs.RequestFrom(ctx), done: make(chan struct{})})
}

// submit is the single intake of the mutation pipeline.
func (d *Document) submit(op *pendingOp) (*Ticket, error) {
	op.rc.Stamp(obs.StageEnqueue)
	gc := d.grp.Load()
	if gc == nil {
		d.mu.Lock()
		d.applyBatchLocked([]*pendingOp{op})
		d.mu.Unlock()
		decide(op)
		return &Ticket{op: op}, nil
	}
	gc.inflight.Add(1)
	var rec []byte
	if gc.cfg.WAL != nil {
		xml := ""
		if op.insert {
			xml = xmltree.Serialize(op.child)
		}
		rec = encodeMutation(op.insert, op.parent, op.pos, xml)
	}
	gc.emu.Lock()
	// quit is closed under emu, so a submit that gets past this check sends
	// before the commit loop's final drain: no op is queued behind a loop
	// that has exited, and no ticket is left undecided.
	select {
	case <-gc.quit:
		gc.emu.Unlock()
		gc.inflight.Add(-1)
		return nil, ErrDocumentClosed
	default:
	}
	if rec != nil {
		seq, err := gc.cfg.WAL.AppendNoSync(rec)
		if err != nil {
			gc.emu.Unlock()
			gc.inflight.Add(-1)
			return nil, fmt.Errorf("%w: WAL append: %w", ErrStorage, err)
		}
		op.seq = seq
		op.rc.Stamp(obs.StageWALAppend)
	}
	// The queue send happens under emu, right after the WAL append, so
	// intake order equals log order. The send may block on a full queue
	// (backpressure); the commit loop never takes emu and cannot be told to
	// quit while emu is held, so it always drains.
	gc.ch <- op
	gc.emu.Unlock()
	if gc.gm != nil {
		gc.gm.enqueued.Inc()
	}
	if op.seq > 0 {
		// The durability wait coalesces with concurrent enqueuers (and with
		// the commit loop's own SyncTo barrier) under SyncGroup.
		if err := gc.cfg.WAL.WaitDurable(op.seq); err != nil {
			return &Ticket{op: op}, fmt.Errorf("%w: WAL fsync: %w", ErrStorage, err)
		}
		op.rc.Stamp(obs.StageFsyncDone)
	}
	return &Ticket{op: op}, nil
}

// decide releases op's ticket. A successful op's epoch is published and its
// Wait is about to return — the moment the mutation became readable.
func decide(op *pendingOp) {
	if op.err == nil {
		op.rc.Stamp(obs.StageVisible)
	}
	close(op.done)
}

func (gc *groupCommitter) loop() {
	defer close(gc.done)
	for {
		select {
		case op := <-gc.ch:
			gc.commit(gc.fill(op, true))
		case <-gc.quit:
			// Final flush: everything already queued still commits (in
			// batches), then the loop exits.
			for {
				select {
				case op := <-gc.ch:
					gc.commit(gc.fill(op, false))
				default:
					return
				}
			}
		}
	}
}

// fill collects up to MaxBatch ops starting from first. When linger is set
// and writers are concurrent — the previous batch held more than one op, or
// more than one is in flight as first is dequeued — it lingers up to
// MaxDelay for followers; then, or at once for a lone writer, it takes
// whatever else is queued. Every op taken is stamped "dequeue" here — the
// one chokepoint all three take sites share — and "batched" as the batch
// closes.
func (gc *groupCommitter) fill(first *pendingOp, linger bool) []*pendingOp {
	first.rc.Stamp(obs.StageDequeue)
	batch := append(make([]*pendingOp, 0, gc.cfg.MaxBatch), first)
	if linger && gc.cfg.MaxDelay > 0 && (gc.lastBatch > 1 || gc.inflight.Load() > 1) {
		timer := time.NewTimer(gc.cfg.MaxDelay)
		defer timer.Stop()
	wait:
		for len(batch) < gc.cfg.MaxBatch {
			select {
			case op := <-gc.ch:
				op.rc.Stamp(obs.StageDequeue)
				batch = append(batch, op)
			case <-timer.C:
				break wait
			case <-gc.quit:
				// Shutdown while lingering: stop waiting, take what's queued.
				break wait
			}
		}
	}
drain:
	for len(batch) < gc.cfg.MaxBatch {
		select {
		case op := <-gc.ch:
			op.rc.Stamp(obs.StageDequeue)
			batch = append(batch, op)
		default:
			break drain
		}
	}
	for _, op := range batch {
		op.rc.Stamp(obs.StageBatched)
	}
	gc.lastBatch = len(batch)
	return batch
}

// noteDepth sets the depth gauges as the loop takes (inflight = batch size)
// and finishes (0) a batch.
func (gc *groupCommitter) noteDepth(inflight int) {
	if gc.gm == nil {
		return
	}
	queued := int64(len(gc.ch))
	gc.gm.queueDepth.Set(queued)
	gc.gm.pipelineDepth.Set(queued + int64(inflight))
}

// mirrorWAL adds what the WAL appended and synced since the last call to
// the write.wal_* counters. The commit loop calls it once per batch and,
// after the loop has exited, DisableGroupCommit once more.
func (gc *groupCommitter) mirrorWAL() {
	if gc.gm == nil || gc.gm.walAppends == nil {
		return
	}
	st := gc.cfg.WAL.Stats()
	gc.gm.walAppends.Add(uint64(st.Appends - gc.walSeen.Appends))
	gc.gm.walFsyncs.Add(uint64(st.Syncs - gc.walSeen.Syncs))
	gc.gm.walBytes.Add(uint64(st.Bytes - gc.walSeen.Bytes))
	gc.walSeen = st
}

// commit makes one batch durable, applies it and publishes one epoch.
func (gc *groupCommitter) commit(batch []*pendingOp) {
	gc.noteDepth(len(batch))
	defer gc.noteDepth(0)
	// Publish-after-durable: nothing in this batch becomes visible before
	// its WAL records are on disk. Usually a no-op — the enqueuers' own
	// durability waits already drove a covering fsync.
	if w := gc.cfg.WAL; w != nil && w.Policy() != storage.SyncNone {
		if last := batch[len(batch)-1].seq; last > 0 {
			if err := w.SyncTo(last); err != nil {
				err = fmt.Errorf("%w: WAL fsync: %w", ErrStorage, err)
				gc.mirrorWAL()
				for _, op := range batch {
					op.err = err
				}
				if gc.gm != nil {
					gc.gm.failed.Add(uint64(len(batch)))
				}
				gc.release(batch)
				return
			}
		}
	}
	d := gc.d
	d.mu.Lock()
	applied := d.applyBatchLocked(batch)
	d.mu.Unlock()
	if gc.gm != nil {
		gc.gm.batches.Inc()
		gc.gm.batchSize.Observe(int64(len(batch)))
		gc.gm.applied.Add(uint64(applied))
		gc.gm.failed.Add(uint64(len(batch) - applied))
	}
	gc.mirrorWAL() // before the tickets: a writer that saw its write sees its record counted
	gc.release(batch)
}

// release takes a decided batch off the in-flight count and releases its
// tickets.
func (gc *groupCommitter) release(batch []*pendingOp) {
	gc.inflight.Add(-int64(len(batch)))
	for _, op := range batch {
		decide(op)
	}
}

// writable reports why the document cannot take structural updates at all:
// a cold-opened document refuses them (see Document.readonly).
func (d *Document) writable() error {
	if d.readonly {
		return ErrColdDocument
	}
	return nil
}

// applyBatchLocked applies every member of one batch to one working
// successor of the newest epoch — each mutation resolved on the state the
// ones before it left, individually area-confined and individually a no-op
// on failure — and publishes it as ONE epoch covering the successful ones.
// It returns how many members applied; when none did the working state is
// dropped and nothing is published. Per-op outcomes land on the ops. Callers
// hold d.mu.
func (d *Document) applyBatchLocked(batch []*pendingOp) int {
	if err := d.writable(); err != nil {
		for _, op := range batch {
			op.err = err
		}
		return 0
	}
	prev := d.cur.Load()
	w := &working{num: prev.num.Fork(), born: make(map[*xmltree.Node]struct{}), nodes: prev.nodes, depths: prev.depths}
	var (
		applied []*pendingOp
		fold    *dataguide.Batch
	)
	if prev.Guide() != nil {
		fold = prev.Guide().Begin()
	}
	rootDepth := 0
	if w.doc().Kind == xmltree.Document {
		rootDepth = 1
	}
	for _, op := range batch {
		// Every member resolves its own path: an earlier insert or delete
		// changes what a positional path selects.
		parent, err := w.findOne(op.parent)
		if err != nil {
			op.err = err
			continue
		}
		path := w.elementPath(parent)
		sub, err := w.apply(op, parent)
		if err != nil {
			op.err = err
			continue
		}
		// Counting an inserted subtree detaches it, as publication requires;
		// a removed one is the fork's or an epoch's, and detached already.
		c, dd := detach(sub, rootDepth+len(path))
		sign := +1
		if !op.insert {
			c, dd, sign = -c, -dd, -1
		}
		w.nodes += c
		w.depths += dd
		if op.insert {
			sub.Walk(func(x *xmltree.Node) bool {
				if x.Kind == xmltree.Element {
					w.born[x] = struct{}{}
				}
				return true
			})
		}
		// The guide update folds EAGERLY, at apply time, because the fold
		// walks the subtree: an inserted subtree must be counted as it was
		// inserted, before a later batch member deletes inside it (whose own
		// fold then subtracts exactly that part). A deferred walk would see
		// the post-batch shape and double-subtract. The fold shares ONE
		// guide copy across the whole batch; a nil or broken fold stays
		// broken, and publication then rebuilds the guide from the tree.
		if fold != nil {
			fold.Update(path, sub, sign)
		}
		op.rc.Stamp(obs.StageMerged)
		applied = append(applied, op)
	}
	if len(applied) == 0 {
		return 0
	}
	var guide *dataguide.Guide
	if fold != nil {
		guide = fold.Guide()
	}
	d.publishLocked(w, guide)
	for _, op := range applied {
		op.rc.Stamp(obs.StagePublished)
	}
	return len(applied)
}

// apply applies one mutation below parent on the working state and records
// its §3.2 statistics on op. It returns the subtree the update attached or
// removed (an insert of a stamped child attaches a copy); the update's delta
// joins w.deltas.
func (w *working) apply(op *pendingOp, parent *xmltree.Node) (*xmltree.Node, error) {
	var (
		delta *core.Delta
		err   error
	)
	if op.insert {
		op.stats, delta, err = w.num.InsertChildDelta(parent, op.pos, op.child)
	} else {
		op.stats, delta, err = w.num.DeleteChildDelta(parent, op.pos)
	}
	if err != nil {
		return nil, err
	}
	w.deltas = append(w.deltas, delta)
	if op.insert {
		return delta.Inserted, nil
	}
	return delta.Removed, nil
}

// Mutation record payload, the document layer's WAL encoding:
//
//	u8 version (1) | u8 op ('I' or 'D') | uvarint pos |
//	uvarint len(parentPath) | parentPath | uvarint len(xml) | xml
//
// The xml field is the serialized inserted subtree; empty for deletes.
const mutationRecordVersion = 1

func encodeMutation(insert bool, parent string, pos int, xml string) []byte {
	op := byte('D')
	if insert {
		op = 'I'
	}
	buf := make([]byte, 0, 2+3*binary.MaxVarintLen64+len(parent)+len(xml))
	buf = append(buf, mutationRecordVersion, op)
	buf = binary.AppendUvarint(buf, uint64(pos))
	buf = binary.AppendUvarint(buf, uint64(len(parent)))
	buf = append(buf, parent...)
	buf = binary.AppendUvarint(buf, uint64(len(xml)))
	buf = append(buf, xml...)
	return buf
}

var errBadMutationRecord = errors.New("document: malformed WAL mutation record")

func decodeMutation(rec []byte) (insert bool, parent string, pos int, xml string, err error) {
	if len(rec) < 2 || rec[0] != mutationRecordVersion || (rec[1] != 'I' && rec[1] != 'D') {
		return false, "", 0, "", errBadMutationRecord
	}
	insert = rec[1] == 'I'
	b := rec[2:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	str := func() (string, bool) {
		n, ok := next()
		if !ok || uint64(len(b)) < n {
			return "", false
		}
		s := string(b[:n])
		b = b[n:]
		return s, true
	}
	p, ok := next()
	if !ok {
		return false, "", 0, "", errBadMutationRecord
	}
	parent, ok = str()
	if !ok {
		return false, "", 0, "", errBadMutationRecord
	}
	xml, ok = str()
	if !ok || len(b) != 0 {
		return false, "", 0, "", errBadMutationRecord
	}
	return insert, parent, int(p), xml, nil
}

// ReplayWAL applies recovered mutation records (in log order) to the
// document and publishes AT MOST ONE epoch at the end, so recovery never
// exposes a partially replayed state: before the publish, readers see the
// base image; after it, every durable mutation. Records that fail to
// decode or to apply are counted in skipped — a deterministic failure
// (e.g. a parent path that no longer matches) failed identically in the
// crashed process and was never acknowledged as visible. Call before
// EnableGroupCommit, with the records collected by storage.OpenWAL.
func (d *Document) ReplayWAL(records [][]byte) (applied, skipped int, err error) {
	if len(records) == 0 {
		return 0, 0, nil
	}
	batch := make([]*pendingOp, 0, len(records))
	for _, rec := range records {
		insert, parent, pos, xml, derr := decodeMutation(rec)
		if derr != nil {
			skipped++
			continue
		}
		op := &pendingOp{insert: insert, parent: parent, pos: pos, done: make(chan struct{})}
		if insert {
			child, perr := xmltree.ParseFragment(xml)
			if perr != nil {
				skipped++
				continue
			}
			op.child = child
		}
		batch = append(batch, op)
	}
	if len(batch) == 0 {
		return 0, skipped, nil
	}
	d.mu.Lock()
	applied = d.applyBatchLocked(batch)
	d.mu.Unlock()
	for _, op := range batch {
		if op.err != nil {
			skipped++
		}
	}
	return applied, skipped, nil
}
