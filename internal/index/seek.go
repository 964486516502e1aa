package index

import (
	"sort"
	"sync"

	"repro/internal/budget"
	"repro/internal/core"
)

// The read side of the ruid joins: the probe, the block skip test and the
// one iterator over a Postings view. The skip test exploits the one interval
// the ruid scheme gives us for free: a subtree is contiguous in document
// order. A block covering the document-order range [First, Last] can only
// produce a hit against an ancestor set A if some a ∈ A lies strictly inside
// (First, Last] — found by binary search over the sorted ancestors with the
// O(1)-space order comparator — or some a is an ancestor-or-self of First,
// found by climbing First's ancestor chain (pure identifier arithmetic,
// Lemma 1: no I/O, no tree access) against the membership set. The test
// never skips a productive block: if d in the block has an ancestor a, then
// either a follows First in document order (and precedes d ≤ Last), or a's
// contiguous subtree contains both d and First, making a an ancestor-or-self
// of First. Skipping therefore never changes results, and candidates are
// processed in block order, so output order is exactly the serial flat-slice
// order.

// Probe is the ancestor side of a join prepared for probing: the
// membership set plus the same identifiers as a document-ordered slice
// (the binary-search side of the skip test). Built once per join,
// read-only afterwards; concurrent shard kernels share one instance.
type Probe struct {
	Set IDSet
	ids []core.ID
	buf []core.ID // decode scratch a pooled probe keeps; ids aliases it for a block view

	pooled bool // back in its pool: a second Release would hand it to two joins
}

var probePool = sync.Pool{New: func() any { poolMisses.Add(1); return new(Probe) }}

// MakeProbe builds the probe for p in a pooled table; the caller releases
// it once every kernel reading it has returned. A slice view shares its
// backing slice; a block view is decoded once, into the probe's own scratch.
func MakeProbe(p Postings) *Probe {
	poolGets.Add(1)
	pr := probePool.Get().(*Probe)
	pr.pooled = false
	if pl := p.List(); pl != nil {
		pr.buf = pl.AppendAll(pr.buf[:0])
		pr.ids = pr.buf
	} else {
		pr.ids = p.Slice()
	}
	pr.Set.Reset(len(pr.ids))
	for _, id := range pr.ids {
		pr.Set.Add(id)
	}
	return pr
}

// Release returns the probe to its pool. The caller must not use it
// afterwards; join outputs never alias it.
func (pr *Probe) Release() {
	if pr.pooled {
		panic("index: Probe released twice")
	}
	pr.pooled = true
	pr.ids = nil
	probePool.Put(pr)
}

// mayContribute reports whether the block described by sk can produce a
// descendant (or child) of a probe member, using only the skip entry:
// either a probe identifier lies in the block's document-order range after
// First, or one is an ancestor-or-self of First. Every climb goes through
// bs's cursor, and bs.chain is the scratch for First's.
func (pr *Probe) mayContribute(sk *Skip, bs *BlockScratch) bool {
	c := &bs.cursor
	i := sort.Search(len(pr.ids), func(i int) bool {
		return c.CompareOrder(pr.ids[i], sk.First) > 0
	})
	if i < len(pr.ids) && c.CompareOrder(pr.ids[i], sk.Last) <= 0 {
		return true
	}
	bs.chain = c.AppendChain(bs.chain[:0], sk.First)
	for _, a := range bs.chain {
		if pr.Set.Has(a) {
			return true
		}
	}
	return false
}

// admitAll reports whether the skip test is worth running at all: with an
// ancestor side this large relative to the descendant list, nearly every
// block contains some ancestor's descendant and the per-block order probes
// are pure overhead. Admitting every block is always conservative — the
// membership kernels still decide every pair — so this only trades skip
// opportunities for test cost.
func (pr *Probe) admitAll(pl *PostingList) bool {
	return len(pr.ids) >= pl.Len()/8
}

// maxRunBlocks caps how many consecutive candidate blocks are decoded into
// one kernel call: long enough to amortize the per-run setup, short enough
// to keep the decode scratch bounded (32 blocks = 4096 identifiers).
const maxRunBlocks = 32

// BlockStats counts what the skip table did for one scan: how many blocks
// the skip test examined (Probes counts candidate evaluations, including the
// re-test that ends a run), how many were decoded (Admitted), how many were
// galloped over without decoding (Skipped), and how often the dense admit-all
// shortcut bypassed the skip test entirely (AdmitAll, once per scan). A slice
// view has no blocks and moves none of them. The fields are plain integers —
// the scratch is per-worker — and internal/exec folds them into the
// observability registry and the query trace after each shard.
type BlockStats struct {
	Probes   int64
	Admitted int64
	Skipped  int64
	AdmitAll int64
}

// BlockScratch is one worker's reusable scratch for a scan and the kernel it
// feeds — the parent cursor every climb of the scan goes through, the decode
// buffer, the skip test's ancestor-chain buffer and the scan's block
// statistics; internal/exec pools instances across shards. The zero value is
// ready.
type BlockScratch struct {
	cursor core.ParentCursor // bound to the scan's numbering by ForEachRun

	buf   []core.ID
	chain []core.ID

	// Stats accumulates across scans until reset; exec drains it per shard.
	Stats BlockStats

	// Meter, when non-nil, is the query's resource budget: ForEachRun
	// charges every admitted run's postings against it before decoding and
	// stops the scan — mid-list, without touching the remaining blocks — the
	// moment a charge is refused. Pooled instances must have it cleared on
	// return (internal/exec does).
	Meter *budget.Meter
}

// Cursor returns the parent cursor of the scan bs serves, for the run
// kernels; it is bound to the scan's numbering once ForEachRun starts.
func (bs *BlockScratch) Cursor() *core.ParentCursor { return &bs.cursor }

// ForEachRun is the one reader of a join's descendant side. It walks units
// [lo, hi) of p in document order and hands fn every run of postings the
// probe admits. The units of a block view are its blocks: maximal
// runs of consecutive candidate blocks (at most maxRunBlocks) are decoded
// into the scratch, blocks failing the skip test are galloped over without
// decoding, and a probe dense enough admits every block untested (see
// Probe.admitAll). The units of a slice view are its identifiers, and the
// range is one admitted run, handed over as it is. A run is valid only until
// fn returns. The scan first binds bs's cursor to n: the skip test climbs
// through it, and so does the kernel fn runs (BlockScratch.Cursor).
//
// This is the budget enforcement point of the read path: every admitted
// run's postings are charged against bs.Meter before any decode, and a
// refused charge — limit exceeded, deadline past, or another shard already
// tripped — ends the scan immediately. The caller's partial output is
// discarded above (the query surfaces the meter's sentinel error), so
// stopping mid-list never yields a silently truncated result.
func ForEachRun(n *core.Numbering, pr *Probe, p Postings, lo, hi int, bs *BlockScratch, fn func(run []core.ID)) {
	bs.cursor.Reset(n)
	pl := p.List()
	if pl == nil {
		if lo < hi && bs.Meter.ChargePostings(hi-lo) {
			fn(p.Slice()[lo:hi])
		}
		return
	}
	admitAll := pr.admitAll(pl)
	if admitAll {
		bs.Stats.AdmitAll++
	}
	candidate := func(b int) bool {
		if admitAll {
			return true
		}
		bs.Stats.Probes++
		return pr.mayContribute(&pl.blocks[b].Skip, bs)
	}
	i := lo
	for i < hi {
		if !candidate(i) {
			bs.Stats.Skipped++
			i++
			continue
		}
		j := i + 1
		count := int(pl.blocks[i].N)
		for j < hi && j-i < maxRunBlocks && candidate(j) {
			count += int(pl.blocks[j].N)
			j++
		}
		if !bs.Meter.ChargePostings(count) {
			return
		}
		ids := bs.buf[:0]
		for b := i; b < j; b++ {
			ids = pl.AppendBlock(b, ids)
		}
		bs.buf = ids
		bs.Stats.Admitted += int64(j - i)
		fn(ids)
		i = j
	}
}

// AppendHitMembersPostings appends the postings pr was built from that are
// present in any of hits to out, in their document order — the emission half
// of both bottom-up semi-joins. The serial forms (internal/scheme) pass
// their one hit set; internal/exec passes its per-shard sets as they are,
// since filtering the ancestor side through them restores order without a
// sort and without building their union.
func AppendHitMembersPostings(pr *Probe, hits []*IDSet, out []core.ID) []core.ID {
	for _, a := range pr.ids {
		for _, hit := range hits {
			if hit.Has(a) {
				out = append(out, a)
				break
			}
		}
	}
	return out
}
