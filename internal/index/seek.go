package index

import (
	"sort"
	"sync"

	"repro/internal/budget"
	"repro/internal/core"
)

// The read side of the ruid joins: the probe, the block skip test and the one
// iterator over a Postings view, plus the serial one-shot joins. The skip test
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
// feeds — the decode buffer, the skip test's ancestor-chain buffer, the merge
// kernel's open-ancestor stack and chain buffers, and the scan's block
// statistics; internal/exec pools instances across shards. The zero value is
// ready.
type BlockScratch struct {
	buf   []core.ID
	chain []core.ID

	stack  []core.ID
	aChain []core.ID
	dChain []core.ID

	// Stats accumulates across scans until reset; exec drains it per shard.
	Stats BlockStats

	// Meter, when non-nil, is the query's resource budget: ForEachRun
	// charges every admitted run's postings against it before decoding and
	// stops the scan — mid-list, without touching the remaining blocks — the
	// moment a charge is refused. Pooled instances must have it cleared on
	// return (internal/exec does).
	Meter *budget.Meter
}

// ForEachRun is the one reader of a join's descendant side. It walks units
// [lo, hi) of p in document order and hands fn every run of postings the
// probe admits. The units of a block or paged view are its blocks: maximal
// runs of consecutive candidate blocks (at most maxRunBlocks) are decoded
// into the scratch, blocks failing the skip test are galloped over without
// decoding, and a probe dense enough admits every block untested (see
// Probe.admitAll). The units of a slice view are its identifiers, and the
// range is one admitted run, handed over as it is. A run is valid only until
// fn returns.
//
// This is the budget enforcement point of the read path: every admitted
// run's postings are charged against bs.Meter before any decode, and a
// refused charge — limit exceeded, deadline past, or another shard already
// tripped — ends the scan immediately. The caller's partial output is
// discarded above (the query surfaces the meter's sentinel error), so
// stopping mid-list never yields a silently truncated result.
func ForEachRun(n *core.Numbering, pr *Probe, p Postings, lo, hi int, bs *BlockScratch, fn func(run []core.ID)) {
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
		return pr.mayContribute(n, &pl.blocks[b].Skip, &bs.chain)
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

// The serial one-shot form of every join, over Postings views: probe, one
// scan of the whole descendant side, the run kernel on every run. They are
// the reference internal/exec's sharded operations are tested against, and
// NameIndex.PathQueryRUID pipelines through the semi-join.

func oneShot[T any](n *core.Numbering, ancs, descs Postings, kernel func(pr *Probe, bs *BlockScratch, run []core.ID, out []T) []T) []T {
	pr := MakeProbe(ancs)
	defer pr.Release()
	var bs BlockScratch
	out := make([]T, 0, descs.Len())
	ForEachRun(n, pr, descs, 0, descs.units(), &bs, func(run []core.ID) {
		out = kernel(pr, &bs, run, out)
	})
	return out
}

// UpwardJoinPostings returns every pair (a, d) with a ∈ ancs a proper
// ancestor of d ∈ descs, in document order of the descendant, computed by
// rparent arithmetic against a hash of ancs.
func UpwardJoinPostings(n *core.Numbering, ancs, descs Postings) []PairID {
	return oneShot(n, ancs, descs, func(pr *Probe, _ *BlockScratch, run []core.ID, out []PairID) []PairID {
		return AppendUpwardJoinRUID(n, &pr.Set, run, out)
	})
}

// MergeJoinPostings returns the same pairs as UpwardJoinPostings by the
// stack-based sort-merge over the two document-ordered inputs. The ancestor
// side is materialized in the probe: the merge kernel walks it sequentially
// and a selective merge join has a small ancestor side by construction.
func MergeJoinPostings(n *core.Numbering, ancs, descs Postings) []PairID {
	return oneShot(n, ancs, descs, func(pr *Probe, bs *BlockScratch, run []core.ID, out []PairID) []PairID {
		return AppendMergeJoinRUID(n, pr, run, bs, out)
	})
}

// UpwardSemiJoinPostings returns the members of descs having at least one
// proper ancestor in ancs, in input order.
func UpwardSemiJoinPostings(n *core.Numbering, ancs, descs Postings) []core.ID {
	return oneShot(n, ancs, descs, func(pr *Probe, _ *BlockScratch, run []core.ID, out []core.ID) []core.ID {
		return AppendUpwardSemiJoinRUID(n, &pr.Set, run, out)
	})
}

// ParentSemiJoinPostings returns the members of descs whose direct parent is
// in ancs, in input order. One rparent computation per candidate.
func ParentSemiJoinPostings(n *core.Numbering, ancs, descs Postings) []core.ID {
	return oneShot(n, ancs, descs, func(pr *Probe, _ *BlockScratch, run []core.ID, out []core.ID) []core.ID {
		return AppendParentSemiJoinRUID(n, &pr.Set, run, out)
	})
}

// hitOneShot is oneShot for the bottom-up semi-joins: collect accumulates
// the probe members each run hits, and the ancestor side is then filtered
// through that set.
func hitOneShot(n *core.Numbering, ancs, descs Postings, collect func(n *core.Numbering, set *IDSet, run []core.ID, hit *IDSet)) []core.ID {
	pr := MakeProbe(ancs)
	defer pr.Release()
	hit := AcquireIDSet(min(ancs.Len(), descs.Len()))
	defer hit.Release()
	var bs BlockScratch
	ForEachRun(n, pr, descs, 0, descs.units(), &bs, func(run []core.ID) {
		collect(n, &pr.Set, run, hit)
	})
	return AppendHitMembersPostings(pr, []*IDSet{hit}, make([]core.ID, 0, hit.Len()))
}

// AncestorSemiJoinPostings returns the members of ancs having at least one
// proper descendant in descs, in ancs order.
func AncestorSemiJoinPostings(n *core.Numbering, ancs, descs Postings) []core.ID {
	return hitOneShot(n, ancs, descs, CollectAncestorHitsRUID)
}

// ChildSemiJoinPostings returns the members of ancs having at least one
// direct child in descs, in ancs order.
func ChildSemiJoinPostings(n *core.Numbering, ancs, descs Postings) []core.ID {
	return hitOneShot(n, ancs, descs, CollectChildHitsRUID)
}

// AppendHitMembersPostings appends the postings pr was built from that are
// present in any of hits to out, in their document order — the emission half
// of both bottom-up semi-joins. The serial forms pass their one hit set;
// internal/exec passes its per-shard sets as they are, since filtering the
// ancestor side through them restores order without a sort and without
// building their union.
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
