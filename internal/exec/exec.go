// Package exec is the frame-parallel execution layer for the identifier
// read path. The ruid frame partitions the document into UID-local areas
// (paper §3, Definition 3) whose postings runs are independent under the
// upward join family: every probe reads only the (immutable) numbering and
// a shared hash of the ancestor list, so a posting list can be cut into
// contiguous document-order shards — aligned to area boundaries — joined
// concurrently, and merged by plain concatenation. Concatenation is a
// correct merge precisely because document-order sortedness is a maintained
// invariant of index.NameIndex postings (see index/debug.go).
//
// An Executor owns the policy: how many workers, and below what posting
// volume one shard wins (goroutine + probe-set sharing overhead is real;
// small joins stay serial). Policy is all it chooses: each join has one run
// kernel (package index) and one path to it (join.go), and a serial
// operation is that path with a single shard. Every operation is
// deterministic — any number of shards returns the byte-identical output
// sequence — which the conformance determinism tests pin under GOMAXPROCS 1,
// 2 and 8.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
)

// Mode selects when an Executor parallelizes an operation.
type Mode int

const (
	// Auto runs in parallel when the posting volume exceeds the MinWork
	// threshold and more than one worker is available — the serving default.
	Auto Mode = iota
	// Serial never parallelizes (the P=1 reference path).
	Serial
	// Forced always parallelizes, whatever the volume — benchmark and test
	// mode, where the crossover threshold would hide the machinery.
	Forced
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Serial:
		return "serial"
	case Forced:
		return "forced"
	default:
		return "auto"
	}
}

// DefaultMinWork is the Auto-mode posting volume (|ancs| + |descs|) below
// which an operation runs serially. Joins this small finish in tens of
// microseconds; fork/join overhead and probe-set sharing would dominate.
const DefaultMinWork = 4096

// Config configures an Executor. The zero value is the serving default:
// Auto mode, GOMAXPROCS workers, DefaultMinWork threshold, no observation.
type Config struct {
	Mode Mode
	// Workers caps the worker pool; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// MinWork is the Auto-mode serial/parallel crossover in total postings;
	// 0 means DefaultMinWork.
	MinWork int
	// Observe, when non-nil, receives the executor's engine metrics
	// (operation and shard latencies, seek-kernel block statistics, pool
	// traffic). nil leaves the executor unobserved at one branch of cost
	// per operation.
	Observe *obs.Registry
}

// Executor schedules identifier joins over a worker pool. It is immutable
// and safe for concurrent use; one executor is shared by every query of a
// planner. WithSpan derives a per-query traced view.
type Executor struct {
	mode    Mode
	workers int
	minWork int
	m       *execMetrics
	span    *obs.Span
	meter   *budget.Meter // per-query budget; nil when unbudgeted
}

// New builds an executor from cfg, applying the zero-value defaults.
func New(cfg Config) *Executor {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	mw := cfg.MinWork
	if mw <= 0 {
		mw = DefaultMinWork
	}
	return &Executor{mode: cfg.Mode, workers: w, minWork: mw, m: newExecMetrics(cfg.Observe)}
}

var defaultExec atomic.Pointer[Executor]

func init() {
	defaultExec.Store(New(Config{}))
}

// Default returns the process-wide Auto executor (GOMAXPROCS workers,
// default threshold). Library entry points that take no explicit executor —
// twig.MatchIDs, for one — use it.
func Default() *Executor {
	return defaultExec.Load()
}

// Workers returns the executor's worker cap.
func (e *Executor) Workers() int { return e.workers }

// workersFor resolves the policy for one operation of the given posting
// volume: the number of shards to cut, where 1 means "do not parallelize".
func (e *Executor) workersFor(work int) int {
	switch e.mode {
	case Serial:
		return 1
	case Forced:
		if e.workers < 2 {
			return 2 // exercise the parallel path even on one CPU
		}
		return e.workers
	default:
		if e.workers <= 1 || work < e.minWork {
			return 1
		}
		return e.workers
	}
}

// run executes fn(0..n-1) on up to e.workers goroutines, the caller's
// included — the submitting goroutine is the pool's first worker, so nested
// operations can never deadlock the pool. Shard indices are handed out
// through an atomic cursor (cheap dynamic load balancing: area-aligned
// shards are not perfectly even). A worker panic is re-raised on the
// calling goroutine.
func (e *Executor) run(n int, fn func(i int)) {
	if n <= 1 {
		if n == 1 {
			fn(0)
		}
		return
	}
	var cursor atomic.Int64
	var panicked atomic.Value
	worker := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.Store(r)
			}
		}()
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	helpers := e.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
}

// Per-worker scratch. Shard outputs are appended into pooled slices, copied
// once into the exact-size result, and recycled (gather is the pools' one
// user); the scan and kernel scratch is a pooled index.BlockScratch.

var idBufPool = sync.Pool{New: func() any { poolMisses.Add(1); return new([]core.ID) }}

var pairBufPool = sync.Pool{New: func() any { poolMisses.Add(1); return new([]index.PairID) }}

var blockScratchPool = sync.Pool{New: func() any { poolMisses.Add(1); return new(index.BlockScratch) }}

// blockScratch hands out a pooled scratch wired to this executor's meter, so
// index.ForEachRun charges every admitted run against the query's budget.
func (e *Executor) blockScratch() *index.BlockScratch {
	poolGets.Add(1)
	bs := blockScratchPool.Get().(*index.BlockScratch)
	bs.Meter = e.meter
	return bs
}

// putBlockScratch zeroes the statistics and detaches the meter so a pooled
// scratch never leaks one operation's counts — or one query's budget — into
// the next.
func putBlockScratch(b *index.BlockScratch) {
	b.Stats = index.BlockStats{}
	b.Meter = nil
	blockScratchPool.Put(b)
}

// shardUnits cuts descs into at most want contiguous [lo, hi) ranges of the
// units index.ForEachRun walks: whole blocks of a block or paged view,
// area-aligned identifier ranges of a slice view.
func shardUnits(descs index.Postings, want int) [][2]int {
	if pl := descs.List(); pl != nil {
		return shardBlocks(pl.NumBlocks(), want)
	}
	return shardRanges(descs.Slice(), want)
}

// shardBlocks cuts nblocks posting blocks into at most want contiguous
// [lo, hi) block-index ranges of near-equal size. Blocks never split, so
// every worker seeks its shard through the skip table exactly like the
// serial kernel, and concatenating per-range outputs in range order
// reproduces the serial output (document order).
func shardBlocks(nblocks, want int) [][2]int {
	if want > nblocks {
		want = nblocks
	}
	if want <= 1 {
		return [][2]int{{0, nblocks}}
	}
	ranges := make([][2]int, 0, want)
	lo := 0
	for s := 1; s <= want; s++ {
		hi := s * nblocks / want
		if hi > lo {
			ranges = append(ranges, [2]int{lo, hi})
			lo = hi
		}
	}
	return ranges
}

// shardRanges cuts ids into at most want contiguous [lo, hi) ranges,
// preferring cut points where the UID-local area (the Global component)
// changes: a shard then holds whole areas wherever the area layout allows,
// which keeps each worker's parent climbs inside its own slice of the frame.
// Postings are document-ordered, so concatenating per-range outputs in
// range order reproduces the serial output exactly.
func shardRanges(ids []core.ID, want int) [][2]int {
	n := len(ids)
	if want > n {
		want = n
	}
	if want <= 1 {
		return [][2]int{{0, n}}
	}
	ranges := make([][2]int, 0, want)
	lo := 0
	for s := 1; s < want; s++ {
		target := s * n / want
		if target <= lo {
			continue
		}
		cut := target
		// Slide forward to the nearest area boundary (bounded scan: an area
		// holds at most the partition budget of nodes, and an even split is
		// an acceptable fallback when one area straddles the target).
		const slack = 64
		for cut < n && cut-target < slack && ids[cut].Global == ids[cut-1].Global {
			cut++
		}
		if cut >= n {
			break
		}
		ranges = append(ranges, [2]int{lo, cut})
		lo = cut
	}
	if lo < n {
		ranges = append(ranges, [2]int{lo, n})
	}
	return ranges
}
