package index

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// IDSet is the membership table of the upward joins: an open-addressed hash
// set of concrete identifiers stored inline, probed linearly. A probe hashes
// three integers and touches one 24-byte slot in the common case, where a Go
// map hashes the key's bytes and walks buckets.
//
// The table is a power-of-two slice kept at most half full. The zero ID —
// not a valid identifier (core/id.go) — marks an empty slot, so it is never a
// member: Add ignores it and Has does not report it. The zero IDSet is an
// empty set ready for Add.
//
// A set is written by one goroutine and then only read, so concurrent shard
// kernels may share one instance. Sets live in pools (MakeProbe,
// AcquireIDSet): slots beyond len(slots), up to its capacity, are the unused
// rest of a table an earlier user grew, and are always zero.
type IDSet struct {
	slots  []core.ID
	n      int
	shift  uint8 // 64 - log2(len(slots)): a slot index is the hash's top bits
	pooled bool  // back in its pool: a second Release would hand it to two users
}

// minIDSetSlots is the smallest table: 192 bytes, three cache lines.
const minIDSetSlots = 8

// hashID mixes the three components with two odd multipliers; the table takes
// the product's top bits, which depend on every input bit below them. Dense
// runs of Global (one area root per element) and of Local (siblings inside an
// area) both spread, and the Root flag separates an area root from the
// non-root node with the same two indices.
func hashID(id core.ID) uint64 {
	l := uint64(id.Local) << 1
	if id.Root {
		l |= 1
	}
	return (uint64(id.Global)*0x9E3779B97F4A7C15 ^ l) * 0xD6E8FEB86659FD93
}

// Len returns the number of members.
func (s *IDSet) Len() int { return s.n }

// Has reports whether id is a member.
func (s *IDSet) Has(id core.ID) bool {
	if s.n == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := hashID(id) >> s.shift; ; i++ {
		switch s.slots[i&mask] {
		case core.ID{}:
			return false
		case id:
			return true
		}
	}
}

// Add makes id a member; adding a member again, or the zero ID, does nothing.
func (s *IDSet) Add(id core.ID) {
	if id == (core.ID{}) {
		return
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := hashID(id) >> s.shift; ; i++ {
		switch c := &s.slots[i&mask]; *c {
		case id:
			return
		case core.ID{}:
			*c = id
			s.n++
			return
		}
	}
}

// grow doubles the table. The members are reinserted from the old table, so
// the new one is a fresh allocation even when the old backing array has room;
// callers that know their size up front pass it to Reset and never get here.
func (s *IDSet) grow() {
	old := s.slots
	s.slots = nil
	s.resize(max(2*len(old), minIDSetSlots))
	s.n = 0
	for _, id := range old {
		s.Add(id)
	}
}

// resize makes the table size empty slots, reusing the backing array when it
// is large enough. Every slot of the backing array must already be zero.
func (s *IDSet) resize(size int) {
	if size <= cap(s.slots) {
		s.slots = s.slots[:size]
	} else {
		s.slots = make([]core.ID, size)
	}
	s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
}

// Reset empties the set and sizes its table for n members. The cost is
// clearing the table the previous use occupied, not the largest this set ever
// grew to: a one-element seed that draws a megabyte table from the pool
// clears and probes eight slots of it.
func (s *IDSet) Reset(n int) {
	if s.n > 0 {
		clear(s.slots)
		s.n = 0
	}
	size := minIDSetSlots
	for size < 2*n {
		size <<= 1
	}
	s.resize(size)
}

// Each calls fn for every member, in no particular order.
func (s *IDSet) Each(fn func(core.ID)) {
	if s.n == 0 {
		return
	}
	for _, id := range s.slots {
		if id != (core.ID{}) {
			fn(id)
		}
	}
}

// Pool traffic of the two pools below. internal/exec reports it under
// exec.pool_gets / exec.pool_misses together with its own scratch pools;
// package index stays free of obs.
var poolGets, poolMisses atomic.Int64

// PoolTraffic returns how many probes and hit sets were drawn from the pools
// and how many of those draws had to allocate a new one.
func PoolTraffic() (gets, misses int64) { return poolGets.Load(), poolMisses.Load() }

var idSetPool = sync.Pool{New: func() any { poolMisses.Add(1); return new(IDSet) }}

// AcquireIDSet returns an empty pooled set sized for n members — the
// per-shard hit set of the bottom-up semi-joins. Release it when done.
func AcquireIDSet(n int) *IDSet {
	poolGets.Add(1)
	s := idSetPool.Get().(*IDSet)
	s.pooled = false
	s.Reset(n)
	return s
}

// Release returns a set obtained from AcquireIDSet to its pool. The caller
// must not use it afterwards.
func (s *IDSet) Release() {
	if s.pooled {
		panic("index: IDSet released twice")
	}
	s.pooled = true
	idSetPool.Put(s)
}
