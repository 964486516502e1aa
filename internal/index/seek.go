package index

import (
	"sort"
	"sync"

	"repro/internal/budget"
	"repro/internal/core"
)

// Seek-based join kernels over block-compressed postings. The skip test
// exploits the one interval the ruid scheme gives us for free: a subtree is
// contiguous in document order. A block covering the document-order range
// [First, Last] can only produce a hit against an ancestor set A if some
// a ∈ A lies strictly inside (First, Last] — found by binary search over
// the sorted ancestors with the O(1)-space order comparator — or some a is
// an ancestor-or-self of First, found by climbing First's ancestor chain
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
// First, or one is an ancestor-or-self of First. chain is scratch for the
// ancestor climb.
func (pr *Probe) mayContribute(n *core.Numbering, sk *Skip, chain *[]core.ID) bool {
	i := sort.Search(len(pr.ids), func(i int) bool {
		return n.CompareOrderID(pr.ids[i], sk.First) > 0
	})
	if i < len(pr.ids) && n.CompareOrderID(pr.ids[i], sk.Last) <= 0 {
		return true
	}
	*chain = n.AppendAncestorChainID((*chain)[:0], sk.First)
	for _, a := range *chain {
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
// one kernel call: long enough to amortize the per-run setup (the merge
// join re-seeds its stack per run), short enough to keep the decode scratch
// bounded (32 blocks = 4096 identifiers).
const maxRunBlocks = 32

// BlockStats counts what the skip table did for one kernel call: how many
// blocks the skip test examined (Probes counts candidate evaluations,
// including the re-test that ends a run), how many were decoded (Admitted),
// how many were galloped over without decoding (Skipped), and how often the
// dense admit-all shortcut bypassed the skip test entirely (AdmitAll, once
// per kernel call). The fields are plain integers — the scratch is
// per-worker — and internal/exec folds them into the observability registry
// and the query trace after each shard.
type BlockStats struct {
	Probes   int64
	Admitted int64
	Skipped  int64
	AdmitAll int64
}

// Add accumulates other into s.
func (s *BlockStats) Add(other BlockStats) {
	s.Probes += other.Probes
	s.Admitted += other.Admitted
	s.Skipped += other.Skipped
	s.AdmitAll += other.AdmitAll
}

// BlockScratch is the reusable scratch of the block kernels — the decode
// buffer, the skip test's ancestor-chain buffer and the per-call block
// statistics; internal/exec pools instances across shards. The zero value
// is ready.
type BlockScratch struct {
	buf   []core.ID
	chain []core.ID

	// Stats accumulates across kernel calls until reset; exec drains it
	// per shard.
	Stats BlockStats

	// Meter, when non-nil, is the query's resource budget: forEachRun
	// charges every admitted block's postings against it before decoding
	// and stops the scan — mid-list, without touching the remaining blocks
	// — the moment a charge is refused. Pooled instances must have it
	// cleared on return (internal/exec does).
	Meter *budget.Meter
}

// forEachRun decodes maximal runs of consecutive candidate blocks in
// [lo, hi) and hands each run to fn along with its first block index.
// Blocks failing the candidate test are galloped over without decoding; a
// nil candidate admits every block (the dense case, see Probe.admitAll).
//
// This is the budget enforcement point of the block read path: every
// admitted run's postings are charged against bs.Meter before any decode,
// and a refused charge — limit exceeded, deadline past, or another shard
// already tripped — ends the scan immediately. The caller's partial output
// is discarded above (the query surfaces the meter's sentinel error), so
// stopping mid-list never yields a silently truncated result.
func forEachRun(pl *PostingList, lo, hi int, candidate func(sk *Skip) bool, bs *BlockScratch, fn func(firstBlock int, ids []core.ID)) {
	if candidate == nil {
		bs.Stats.AdmitAll++
	}
	probe := func(b int) bool {
		bs.Stats.Probes++
		return candidate(&pl.skips[b])
	}
	i := lo
	for i < hi {
		if candidate != nil && !probe(i) {
			bs.Stats.Skipped++
			i++
			continue
		}
		j := i + 1
		n := int(pl.skips[i].N)
		for j < hi && j-i < maxRunBlocks && (candidate == nil || probe(j)) {
			n += int(pl.skips[j].N)
			j++
		}
		if !bs.Meter.ChargePostings(n) {
			return
		}
		ids := bs.buf[:0]
		for b := i; b < j; b++ {
			ids = pl.AppendBlock(b, ids)
		}
		bs.buf = ids
		bs.Stats.Admitted += int64(j - i)
		fn(i, ids)
		i = j
	}
}

// AppendUpwardJoinBlocks runs the upward-join kernel over blocks [lo, hi)
// of pl, skipping blocks the skip test rules out.
func AppendUpwardJoinBlocks(n *core.Numbering, pr *Probe, pl *PostingList, lo, hi int, bs *BlockScratch, out []PairID) []PairID {
	cand := func(sk *Skip) bool { return pr.mayContribute(n, sk, &bs.chain) }
	if pr.admitAll(pl) {
		cand = nil
	}
	forEachRun(pl, lo, hi, cand, bs, func(_ int, ids []core.ID) {
		out = AppendUpwardJoinRUID(n, &pr.Set, ids, out)
	})
	return out
}

// AppendUpwardSemiJoinBlocks runs the upward-semi-join kernel over blocks
// [lo, hi) of pl with block skipping.
func AppendUpwardSemiJoinBlocks(n *core.Numbering, pr *Probe, pl *PostingList, lo, hi int, bs *BlockScratch, out []core.ID) []core.ID {
	cand := func(sk *Skip) bool { return pr.mayContribute(n, sk, &bs.chain) }
	if pr.admitAll(pl) {
		cand = nil
	}
	forEachRun(pl, lo, hi, cand, bs, func(_ int, ids []core.ID) {
		out = AppendUpwardSemiJoinRUID(n, &pr.Set, ids, out)
	})
	return out
}

// AppendParentSemiJoinBlocks runs the parent-semi-join kernel over blocks
// [lo, hi) of pl, skipping blocks that cannot contain a child of a probe member.
func AppendParentSemiJoinBlocks(n *core.Numbering, pr *Probe, pl *PostingList, lo, hi int, bs *BlockScratch, out []core.ID) []core.ID {
	cand := func(sk *Skip) bool { return pr.mayContribute(n, sk, &bs.chain) }
	if pr.admitAll(pl) {
		cand = nil
	}
	forEachRun(pl, lo, hi, cand, bs, func(_ int, ids []core.ID) {
		out = AppendParentSemiJoinRUID(n, &pr.Set, ids, out)
	})
	return out
}

// CollectAncestorHitsBlocks runs the ancestor-hit collector over blocks
// [lo, hi) of pl with block skipping, accumulating into hit.
func CollectAncestorHitsBlocks(n *core.Numbering, pr *Probe, pl *PostingList, lo, hi int, bs *BlockScratch, hit *IDSet) {
	cand := func(sk *Skip) bool { return pr.mayContribute(n, sk, &bs.chain) }
	if pr.admitAll(pl) {
		cand = nil
	}
	forEachRun(pl, lo, hi, cand, bs, func(_ int, ids []core.ID) {
		CollectAncestorHitsRUID(n, &pr.Set, ids, hit)
	})
}

// CollectChildHitsBlocks runs the child-hit collector over blocks [lo, hi)
// of pl with block skipping, accumulating into hit.
func CollectChildHitsBlocks(n *core.Numbering, pr *Probe, pl *PostingList, lo, hi int, bs *BlockScratch, hit *IDSet) {
	cand := func(sk *Skip) bool { return pr.mayContribute(n, sk, &bs.chain) }
	if pr.admitAll(pl) {
		cand = nil
	}
	forEachRun(pl, lo, hi, cand, bs, func(_ int, ids []core.ID) {
		CollectChildHitsRUID(n, &pr.Set, ids, hit)
	})
}

// AppendMergeJoinBlocks runs the stack-based merge join over blocks
// [lo, hi) of pl. Skipped blocks contribute no pairs, and every run is
// re-seeded exactly the way internal/exec seeds a shard: candidate
// admission restarts at the first ancestor not ordered before the run's
// first descendant (binary search) and the open-ancestor stack is seeded
// with the ancs members on that descendant's ancestor chain, outermost
// first — the serial algorithm's stack state at that point. The
// concatenated run outputs therefore equal the serial flat-slice output.
func AppendMergeJoinBlocks(n *core.Numbering, ancs []core.ID, pr *Probe, pl *PostingList, lo, hi int, sc *MergeScratch, bs *BlockScratch, out []PairID) []PairID {
	var chain, seed []core.ID
	cand := func(sk *Skip) bool { return pr.mayContribute(n, sk, &bs.chain) }
	if pr.admitAll(pl) {
		cand = nil
	}
	forEachRun(pl, lo, hi, cand, bs, func(_ int, ids []core.ID) {
		d0 := ids[0]
		start := sort.Search(len(ancs), func(j int) bool {
			return n.CompareOrderID(ancs[j], d0) >= 0
		})
		chain = n.AppendAncestorChainID(chain[:0], d0)
		// chain[0] is d0 itself, nearest ancestor first; the seed wants the
		// subset present in ancs, outermost first.
		seed = seed[:0]
		for j := len(chain) - 1; j >= 1; j-- {
			if pr.Set.Has(chain[j]) {
				seed = append(seed, chain[j])
			}
		}
		out = AppendMergeJoinRUID(n, ancs[start:], ids, seed, sc, out)
	})
	return out
}

// Serial one-shot forms over Postings views. Slice-backed descendants run
// the flat kernels unchanged (the legacy oracle); block-backed descendants
// get block skipping. internal/exec delegates here below its parallel
// crossover, and NameIndex.PathQueryRUID pipelines through them.

// UpwardJoinPostings is UpwardJoinRUID over Postings views.
func UpwardJoinPostings(n *core.Numbering, ancs, descs Postings) []PairID {
	pr := MakeProbe(ancs)
	defer pr.Release()
	out := make([]PairID, 0, descs.Len())
	if pl := descs.List(); pl != nil {
		var bs BlockScratch
		return AppendUpwardJoinBlocks(n, pr, pl, 0, pl.NumBlocks(), &bs, out)
	}
	return AppendUpwardJoinRUID(n, &pr.Set, descs.Slice(), out)
}

// MergeJoinPostings is MergeJoinRUID over Postings views. The ancestor side
// is materialized: the merge kernel walks it sequentially and a selective
// merge join has a small ancestor side by construction.
func MergeJoinPostings(n *core.Numbering, ancs, descs Postings) []PairID {
	ancIDs := ancs.Materialize()
	out := make([]PairID, 0, descs.Len())
	if pl := descs.List(); pl != nil {
		pr := MakeProbe(SlicePostings(ancIDs))
		defer pr.Release()
		var sc MergeScratch
		var bs BlockScratch
		return AppendMergeJoinBlocks(n, ancIDs, pr, pl, 0, pl.NumBlocks(), &sc, &bs, out)
	}
	var sc MergeScratch
	return AppendMergeJoinRUID(n, ancIDs, descs.Slice(), nil, &sc, out)
}

// UpwardSemiJoinPostings is UpwardSemiJoinRUID over Postings views.
func UpwardSemiJoinPostings(n *core.Numbering, ancs, descs Postings) []core.ID {
	pr := MakeProbe(ancs)
	defer pr.Release()
	out := make([]core.ID, 0, descs.Len())
	if pl := descs.List(); pl != nil {
		var bs BlockScratch
		return AppendUpwardSemiJoinBlocks(n, pr, pl, 0, pl.NumBlocks(), &bs, out)
	}
	return AppendUpwardSemiJoinRUID(n, &pr.Set, descs.Slice(), out)
}

// ParentSemiJoinPostings is ParentSemiJoinRUID over Postings views.
func ParentSemiJoinPostings(n *core.Numbering, ancs, descs Postings) []core.ID {
	pr := MakeProbe(ancs)
	defer pr.Release()
	out := make([]core.ID, 0, descs.Len())
	if pl := descs.List(); pl != nil {
		var bs BlockScratch
		return AppendParentSemiJoinBlocks(n, pr, pl, 0, pl.NumBlocks(), &bs, out)
	}
	return AppendParentSemiJoinRUID(n, &pr.Set, descs.Slice(), out)
}

// AncestorSemiJoinPostings is AncestorSemiJoinRUID over Postings views.
func AncestorSemiJoinPostings(n *core.Numbering, ancs, descs Postings) []core.ID {
	pr := MakeProbe(ancs)
	defer pr.Release()
	hit := AcquireIDSet(min(ancs.Len(), descs.Len()))
	defer hit.Release()
	if pl := descs.List(); pl != nil {
		var bs BlockScratch
		CollectAncestorHitsBlocks(n, pr, pl, 0, pl.NumBlocks(), &bs, hit)
	} else {
		CollectAncestorHitsRUID(n, &pr.Set, descs.Slice(), hit)
	}
	return AppendHitMembersPostings(ancs, []*IDSet{hit}, make([]core.ID, 0, hit.Len()))
}

// ChildSemiJoinPostings is ChildSemiJoinRUID over Postings views.
func ChildSemiJoinPostings(n *core.Numbering, ancs, descs Postings) []core.ID {
	pr := MakeProbe(ancs)
	defer pr.Release()
	hit := AcquireIDSet(min(ancs.Len(), descs.Len()))
	defer hit.Release()
	if pl := descs.List(); pl != nil {
		var bs BlockScratch
		CollectChildHitsBlocks(n, pr, pl, 0, pl.NumBlocks(), &bs, hit)
	} else {
		CollectChildHitsRUID(n, &pr.Set, descs.Slice(), hit)
	}
	return AppendHitMembersPostings(ancs, []*IDSet{hit}, make([]core.ID, 0, hit.Len()))
}

// AppendHitMembersPostings appends the members of p present in any of hits
// to out in p's order — AppendHitMembersRUID generalized to a Postings
// view, decoding blockwise so the full ancestor slice is never built.
func AppendHitMembersPostings(p Postings, hits []*IDSet, out []core.ID) []core.ID {
	if pl := p.List(); pl != nil {
		var buf [BlockSize]core.ID
		for b := range pl.skips {
			out = AppendHitMembersRUID(pl.AppendBlock(b, buf[:0]), hits, out)
		}
		return out
	}
	return AppendHitMembersRUID(p.Slice(), hits, out)
}
