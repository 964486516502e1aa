package workload

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
)

// The simulated disk under the stored node tables (BTree, NodeStore,
// PartitionedStore). The paper's performance observations are about
// algorithmic quantities — how many identifier records change, how many
// index pages a lookup touches, whether parent computation needs any I/O
// at all — and a deterministic in-process page store reproduces exactly
// those: fixed-size pages behind a bounded buffer pool with full read /
// write / hit / eviction accounting and pinned frames.

// PageSize is the size of one simulated disk page in bytes.
const PageSize = 4096

// debugChecks gates the use-after-evict hardening: poisoning evicted frame
// bytes and checksumming pinned frames. Seeded from RUID_DEBUG like the
// index-side invariant checks; tests toggle it directly.
var debugChecks atomic.Bool

func init() {
	if os.Getenv("RUID_DEBUG") != "" {
		debugChecks.Store(true)
	}
}

// poisonByte fills evicted frames under debug mode so stale holds read
// garbage deterministically instead of whatever page was faulted next.
const poisonByte = 0xDB

// IOStats counts simulated disk traffic.
type IOStats struct {
	Reads     int64 // pages fetched from "disk" (buffer-pool misses)
	Writes    int64 // pages written back to "disk"
	CacheHits int64 // page requests served from the buffer pool
	Evictions int64 // frames pushed out of the pool to make room
}

// Sub returns the difference s − prev, for measuring one operation.
func (s IOStats) Sub(prev IOStats) IOStats {
	return IOStats{
		Reads:     s.Reads - prev.Reads,
		Writes:    s.Writes - prev.Writes,
		CacheHits: s.CacheHits - prev.CacheHits,
		Evictions: s.Evictions - prev.Evictions,
	}
}

// String renders the counters compactly.
func (s IOStats) String() string {
	return fmt.Sprintf("reads=%d writes=%d hits=%d evictions=%d",
		s.Reads, s.Writes, s.CacheHits, s.Evictions)
}

// ErrPageBounds reports an out-of-range page access.
var ErrPageBounds = errors.New("workload: page id out of range")

// Pager provides fixed-size pages on a simulated disk behind a bounded
// buffer pool with second-chance (clock) eviction. All I/O is counted.
// All methods are safe for concurrent use; page bytes are read through
// Pin, whose PinnedPage.Data slice is valid until Unpin.
type Pager struct {
	mu    sync.Mutex
	disk  [][]byte // the "disk": page id -> page image
	stats IOStats

	capacity int
	frames   map[int32]*frame
	clock    []*frame
	hand     int
}

type frame struct {
	id     int32
	data   []byte
	dirty  bool
	refbit bool
	pins   int
	// Debug-mode fields: gen counts writes to the frame (a pin checksum is
	// only comparable while the generation is unchanged), poisoned marks a
	// frame whose bytes were overwritten at eviction.
	gen      uint64
	poisoned bool
}

// NewPager returns a pager whose buffer pool holds poolPages pages
// (minimum 4).
func NewPager(poolPages int) *Pager {
	if poolPages < 4 {
		poolPages = 4
	}
	return &Pager{
		capacity: poolPages,
		frames:   make(map[int32]*frame, poolPages),
	}
}

// SetCapacity resizes the buffer pool (minimum 4 pages), evicting frames
// down to the new bound. Pinned frames are never evicted, so the pool may
// transiently stay above the bound until they are unpinned.
func (p *Pager) SetCapacity(poolPages int) {
	if poolPages < 4 {
		poolPages = 4
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capacity = poolPages
	for len(p.frames) > p.capacity && p.evict() {
	}
}

// Alloc creates a new zeroed page on disk and returns its id. The page is
// not faulted into the pool until first use.
func (p *Pager) Alloc() int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.disk = append(p.disk, make([]byte, PageSize))
	return int32(len(p.disk) - 1)
}

// Write replaces the contents of a page (through the pool, marking the
// frame dirty; the disk write is counted at eviction or Flush).
func (p *Pager) Write(id int32, data []byte) error {
	if len(data) > PageSize {
		return fmt.Errorf("workload: page %d write of %d bytes exceeds page size", id, len(data))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.fetch(id)
	if err != nil {
		return err
	}
	copy(f.data, data)
	for i := len(data); i < PageSize; i++ {
		f.data[i] = 0
	}
	f.dirty = true
	f.gen++
	return nil
}

// PinnedPage is a page held in the buffer pool on the caller's behalf: the
// frame cannot be evicted (and therefore its bytes cannot be recycled or
// poisoned) until Unpin. This is the discipline that lets a B+tree read
// decode a node safely while other goroutines fault pages through the same
// pool.
type PinnedPage struct {
	p        *Pager
	f        *frame
	unpinned bool

	// Debug-mode checksum of the frame at Pin time; Unpin re-verifies it
	// when the frame's write generation is unchanged, catching anything that
	// scribbled on a read-pinned frame.
	sum      uint32
	gen      uint64
	sumValid bool
}

// Pin faults a page into the pool (counting a disk read on a miss and a
// hit otherwise) and pins its frame against eviction until Unpin. Pins nest: a frame
// stays resident until every pin is released.
func (p *Pager) Pin(id int32) (*PinnedPage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.fetch(id)
	if err != nil {
		return nil, err
	}
	f.pins++
	pp := &PinnedPage{p: p, f: f}
	if debugChecks.Load() {
		pp.sum = crc32.ChecksumIEEE(f.data)
		pp.gen = f.gen
		pp.sumValid = true
	}
	return pp, nil
}

// Data returns the pinned frame's bytes. The slice is valid until Unpin;
// callers must not write through it. Under RUID_DEBUG an evicted frame is
// poisoned with 0xDB, so a slice held past Unpin reads garbage
// deterministically (see TestReadUseAfterEvictPoison). Reading while another goroutine writes
// the same page is a caller bug (the debug checksum catches it at Unpin).
// It panics on use after Unpin, and under RUID_DEBUG also if the frame was
// somehow evicted while pinned (which would indicate a pager bug).
func (pp *PinnedPage) Data() []byte {
	pp.p.mu.Lock()
	defer pp.p.mu.Unlock()
	if pp.unpinned || pp.f.pins <= 0 {
		panic("workload: PinnedPage.Data after Unpin")
	}
	if pp.f.poisoned {
		panic(fmt.Sprintf("workload: pinned page %d was evicted and poisoned", pp.f.id))
	}
	return pp.f.data
}

// Unpin releases the pin. Under RUID_DEBUG it re-checksums the frame and
// panics if the bytes changed without a Write (a torn concurrent access).
// Unpin panics if called twice.
func (pp *PinnedPage) Unpin() {
	pp.p.mu.Lock()
	defer pp.p.mu.Unlock()
	if pp.unpinned {
		panic("workload: PinnedPage.Unpin called twice")
	}
	pp.unpinned = true
	f := pp.f
	if f.pins <= 0 {
		panic(fmt.Sprintf("workload: unpin of page %d with no pins", f.id))
	}
	f.pins--
	if pp.sumValid && f.gen == pp.gen && !f.poisoned {
		if crc32.ChecksumIEEE(f.data) != pp.sum {
			panic(fmt.Sprintf("workload: page %d mutated while read-pinned", f.id))
		}
	}
}

// fetch returns the frame for a page, faulting it in if needed. Caller
// holds p.mu.
func (p *Pager) fetch(id int32) (*frame, error) {
	if int(id) < 0 || int(id) >= len(p.disk) {
		return nil, fmt.Errorf("%w: %d", ErrPageBounds, id)
	}
	if f, ok := p.frames[id]; ok {
		p.stats.CacheHits++
		f.refbit = true
		return f, nil
	}
	p.stats.Reads++
	f := &frame{id: id, data: make([]byte, PageSize), refbit: true}
	copy(f.data, p.disk[id])
	if len(p.frames) >= p.capacity {
		// Best-effort: if every frame is pinned the pool transiently
		// exceeds capacity rather than deadlocking or stealing a pin.
		p.evict()
	}
	p.frames[id] = f
	p.clock = append(p.clock, f)
	return f, nil
}

// evict removes one unpinned frame using the clock algorithm, writing it
// back if dirty. It reports whether a victim was found; pinned frames are
// skipped, so a fully pinned pool evicts nothing. Caller holds p.mu.
func (p *Pager) evict() bool {
	// One pass may only clear refbits; a second then finds the victim. The
	// bound caps the scan when pinned frames make a full sweep fruitless.
	for scanned := 0; scanned <= 2*len(p.clock); scanned++ {
		if len(p.clock) == 0 {
			return false
		}
		if p.hand >= len(p.clock) {
			p.hand = 0
		}
		f := p.clock[p.hand]
		if f.pins > 0 {
			p.hand++
			continue
		}
		if f.refbit {
			f.refbit = false
			p.hand++
			continue
		}
		if f.dirty {
			copy(p.disk[f.id], f.data)
			p.stats.Writes++
		}
		if debugChecks.Load() {
			// Poison the recycled frame so any caller still holding its
			// bytes past Unpin observes garbage instead of silently reading a
			// stale (or re-faulted different) page.
			for i := range f.data {
				f.data[i] = poisonByte
			}
			f.poisoned = true
		}
		p.stats.Evictions++
		delete(p.frames, f.id)
		p.clock = append(p.clock[:p.hand], p.clock[p.hand+1:]...)
		return true
	}
	return false
}

// Flush writes every dirty frame back to disk.
func (p *Pager) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.frames {
		if f.dirty {
			copy(p.disk[f.id], f.data)
			p.stats.Writes++
			f.dirty = false
		}
	}
}

// Stats returns the accumulated I/O counters.
func (p *Pager) Stats() IOStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats zeroes the I/O counters (the pool content is unchanged).
func (p *Pager) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = IOStats{}
}

// DropCache empties the buffer pool (writing dirty pages back), so that
// subsequent reads are cold. Pinned frames survive the drop. Useful for
// measuring worst-case I/O.
func (p *Pager) DropCache() {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := make(map[int32]*frame, p.capacity)
	var clock []*frame
	for _, f := range p.clock {
		if f.pins > 0 {
			kept[f.id] = f
			clock = append(clock, f)
			continue
		}
		if f.dirty {
			copy(p.disk[f.id], f.data)
			p.stats.Writes++
		}
		if debugChecks.Load() {
			for i := range f.data {
				f.data[i] = poisonByte
			}
			f.poisoned = true
		}
	}
	p.frames = kept
	p.clock = clock
	p.hand = 0
}

// Pages returns the number of allocated pages.
func (p *Pager) Pages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.disk)
}
