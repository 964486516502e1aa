package index

import (
	"sort"
	"sync"

	"repro/internal/budget"
	"repro/internal/core"
)

// The read side of the ruid joins: the probe, the scan window, the block
// skip test and the one iterator over a Postings view. Both cuts exploit the
// one interval the ruid scheme gives us for free: a subtree is contiguous in
// document order. A descendant of a probe member follows the first member
// and ends no later than the widest member subtree that holds the last
// member, so Probe.Window drops the leading and trailing blocks outside that
// range before a scan starts. Inside it, a block covering the document-order
// range [First, Last] can only produce a hit against an ancestor set A if
// some a ∈ A lies strictly inside (First, Last] — found by binary search
// over the sorted ancestors with the O(1)-space order comparator — or some a
// is an ancestor-or-self of First, found by climbing First's ancestor chain
// (pure identifier arithmetic, Lemma 1: no I/O, no tree access) against the
// membership set. The test never skips a productive block: if d in the
// block has an ancestor a, then either a follows First in document order
// (and precedes d ≤ Last), or a's contiguous subtree contains both d and
// First, making a an ancestor-or-self of First. Skipping therefore never
// changes results, and candidates are processed in block order, so output
// order is exactly the serial flat-slice order.

// Probe is the ancestor side of a join prepared for probing: the
// membership set plus the same identifiers as a document-ordered slice
// (the binary-search side of the skip test). Built once per join,
// read-only afterwards.
type Probe struct {
	Set IDSet
	ids []core.ID
	buf []core.ID // decode scratch a pooled probe keeps; ids aliases it for a block view

	pooled bool // back in its pool: a second Release would hand it to two joins
}

var probePool = sync.Pool{New: func() any { poolMisses.Add(1); return new(Probe) }}

// MakeProbe builds the probe for p in a pooled table laid out for its
// members; the caller releases it once every kernel reading it has
// returned. A slice view shares its backing slice; a block view is decoded
// once, into the probe's own scratch.
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
	pr.Set.fill(pr.ids)
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
// bs's cursor; First climbs once, into bs.chain, and the binary search
// compares each member's chain (bs.mchain) against it.
func (pr *Probe) mayContribute(sk *Skip, bs *BlockScratch) bool {
	c := &bs.cursor
	bs.chain = c.AppendChain(bs.chain[:0], sk.First)
	i := sort.Search(len(pr.ids), func(i int) bool {
		bs.mchain = c.AppendChain(bs.mchain[:0], pr.ids[i])
		return core.CompareChains(bs.mchain, bs.chain) > 0
	})
	if i < len(pr.ids) && c.CompareOrder(pr.ids[i], sk.Last) <= 0 {
		return true
	}
	for _, a := range bs.chain {
		if pr.Set.Has(a) {
			return true
		}
	}
	return false
}

// admitAll reports whether the skip test is worth running inside the
// window: with an ancestor side this large relative to the descendant list,
// nearly every block contains some ancestor's descendant and the per-block
// order probes are pure overhead. Admitting every block is always
// conservative — the membership kernels still decide every pair — so this
// only trades skip opportunities for test cost; the blocks outside the
// window are cut whatever it decides.
func (pr *Probe) admitAll(pl *PostingList) bool {
	return len(pr.ids) >= pl.Len()/8
}

// minWindowBlocks is the shortest list Window narrows. On a shorter one the
// end tests cost about what the blocks they could cut do.
const minWindowBlocks = 4

// chainCap is the room of Window's stack chain buffers: the ancestor chain
// of a node up to 16 deep fits without growing them.
const chainCap = 16

// Window returns the units [lo, hi) of p a scan must visit: for a block
// view, the blocks that can hold a descendant of a probe member. It drops
// the leading blocks whose Last does not follow the first member, and the
// trailing blocks whose First follows the subtree of the highest member on
// the last member's ancestor chain (the widest member subtree that reaches
// past the last member). Each cut is a binary search over the skip entries
// through bs's cursor, climbing into stack buffers, made only when the end
// block it would drop fails the test. Every kernel emits rows only for
// descendants of probe members, so a window is exact for all of them. The
// cut blocks count as skipped in bs.Stats. A slice view, and a list shorter
// than minWindowBlocks, is never windowed. Callers compute the window once
// per operation and scan it whole.
func (pr *Probe) Window(n *core.Numbering, p Postings, bs *BlockScratch) (lo, hi int) {
	pl := p.List()
	if pl == nil {
		return 0, p.Len()
	}
	nb := len(pl.blocks)
	if nb < minWindowBlocks {
		return 0, nb
	}
	lo, hi = 0, nb
	if len(pr.ids) == 0 {
		hi = 0
	} else {
		c := &bs.cursor
		c.Reset(n)
		var chainBuf, memberBuf [chainCap]core.ID
		member := c.AppendChain(memberBuf[:0], pr.ids[0])
		before := func(b int) bool {
			return core.CompareChains(c.AppendChain(chainBuf[:0], pl.blocks[b].Last), member) <= 0
		}
		if before(0) {
			lo = 1 + sort.Search(nb-1, func(i int) bool { return !before(1 + i) })
		}
		if lo < hi {
			top := c.AppendChain(memberBuf[:0], pr.ids[len(pr.ids)-1])
			for j := len(top) - 1; j >= 0; j-- {
				if pr.Set.Has(top[j]) {
					top = top[j:]
					break
				}
			}
			past := func(b int) bool {
				chain := c.AppendChain(chainBuf[:0], pl.blocks[b].First)
				if d := len(chain) - len(top); d >= 0 && chain[d] == top[0] {
					return false // inside top's subtree
				}
				return core.CompareChains(chain, top) > 0
			}
			if past(hi - 1) {
				hi = lo + sort.Search(hi-1-lo, func(i int) bool { return past(lo + i) })
			}
		}
	}
	bs.Stats.Skipped += int64(nb - (hi - lo))
	return lo, hi
}

// maxRunBlocks caps how many consecutive candidate blocks are decoded into
// one kernel call: long enough to amortize the per-run setup, short enough
// to keep the decode scratch bounded (32 blocks = 4096 identifiers).
const maxRunBlocks = 32

// BlockStats counts what the skip table did for one scan: how many blocks
// the skip test examined (Probes counts candidate evaluations, including the
// re-test that ends a run), how many were decoded (Admitted), how many were
// passed over without decoding (Skipped: cut by the window, or galloped over
// after a failed test), and how often the dense admit-all shortcut bypassed
// the skip test entirely (AdmitAll, once per scan). A slice view has no
// blocks and moves none of them. The fields are plain integers — a scratch
// serves one scan at a time — and internal/exec folds them into the
// observability registry and the query trace after each operation.
type BlockStats struct {
	Probes   int64
	Admitted int64
	Skipped  int64
	AdmitAll int64
}

// BlockScratch is the reusable scratch of one scan and the kernel it feeds —
// the parent cursor every climb of the scan goes through, the decode
// buffer, the skip test's ancestor-chain buffers and the scan's block
// statistics; internal/exec pools instances across operations. The zero
// value is ready.
type BlockScratch struct {
	cursor core.ParentCursor // bound to the scan's numbering by ForEachRun

	buf    []core.ID
	chain  []core.ID // a block boundary's ancestor chain
	mchain []core.ID // a probe member's ancestor chain

	// Stats accumulates across scans until reset; exec drains it per
	// operation.
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
// [lo, hi) of p in document order — the probe's Window —
// and hands fn every run of postings the probe admits. The units of a block
// view are its blocks: maximal runs of consecutive candidate blocks (at most
// maxRunBlocks) are decoded into the scratch, blocks failing the skip test
// are galloped over without decoding, and a probe dense enough admits every
// block of the range untested (see Probe.admitAll). The units of a slice
// view are its identifiers, and the range is one admitted run, handed over
// as it is. A run is valid only until fn returns. The scan first binds bs's
// cursor to n: the skip test climbs through it, and so does the kernel fn
// runs (BlockScratch.Cursor).
//
// This is the budget enforcement point of the read path: every admitted
// run's postings are charged against bs.Meter before any decode, and a
// refused charge — limit exceeded, deadline past, or the meter already
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
// present in hit to out, in their document order — the emission half of both
// bottom-up semi-joins: filtering the ancestor side through the hit set
// keeps its order without a sort.
func AppendHitMembersPostings(pr *Probe, hit *IDSet, out []core.ID) []core.ID {
	for _, a := range pr.ids {
		if hit.Has(a) {
			out = append(out, a)
		}
	}
	return out
}
