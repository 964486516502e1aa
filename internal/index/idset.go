package index

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// IDSet is the membership table of the upward joins: an open-addressed hash
// set of identifiers packed into one-word keys, probed linearly. A probe
// bounds-checks two fields, packs one word, multiplies it once and compares
// 8-byte slots, where a Go map hashes the key's bytes and walks buckets.
//
// The set packs a member under a layout fixed when it is sized (see keyLayout):
// MakeProbe takes it from the probe's members, a hit set from its probe
// (Probe.AcquireHits). Has rejects an identifier outside the layout's ranges
// without touching the table, and an Add outside them lays the set out again
// and rehashes it, as grow does. A member set that no word holds — full-range
// fields, negative locals — keeps its members as whole core.IDs in a second
// table (wide) instead, and stays exact.
//
// The table is a power-of-two slice kept at most half full. Key 0 marks an
// empty slot, and no member packs to 0. The zero ID — not a valid identifier
// (core/id.go) — is never a member: Add ignores it and Has does not report
// it. The zero IDSet is an empty set ready for Add.
//
// A set is written by one goroutine and then only read, so concurrent
// readers may share one instance. Sets live in pools (MakeProbe,
// AcquireHits): slots beyond the length of either table, up to its
// capacity, are the unused rest of a table an earlier user grew, and are
// always zero.
type IDSet struct {
	lay   keyLayout
	keys  []uint64
	shift uint8 // 64 - log2(table size): a slot index is the hash's top bits
	n     int

	wide   []core.ID // the table of a set no layout holds; empty otherwise
	pooled bool      // back in its pool: a second Release would hand it to two users
}

// keyLayout packs an identifier into one word:
//
//	(Global − base) << lshift | Local << 1 | Root
//
// base is one below the smallest member Global, so a key's Global field is
// at least 1 and no key is 0. gmax and lmax are the members' largest Global
// field and Local; an identifier outside [1, gmax] × [0, lmax] is no member.
// The zero keyLayout (gmax 0) holds nothing.
type keyLayout struct {
	base   uint64
	gmax   uint64
	lmax   uint64
	lshift uint8
}

// fitLayout returns the layout of members whose Globals span [minG, maxG]
// and whose Locals, read unsigned, are at most lmax; false when no word
// holds them (a negative Local reads as a top bit).
func fitLayout(minG, maxG int64, lmax uint64) (keyLayout, bool) {
	base := uint64(minG) - 1
	gmax := uint64(maxG) - base // 0 only when the span is all of int64
	lshift := uint8(bits.Len64(lmax)) + 1
	if gmax == 0 || bits.Len64(gmax)+int(lshift) > 64 {
		return keyLayout{}, false
	}
	return keyLayout{base: base, gmax: gmax, lmax: lmax, lshift: lshift}, true
}

// layoutOf returns the layout of ids, in one pass over them.
func layoutOf(ids []core.ID) (keyLayout, bool) {
	if len(ids) == 0 {
		return keyLayout{}, true
	}
	minG, maxG, lmax := ids[0].Global, ids[0].Global, uint64(0)
	for _, id := range ids {
		minG = min(minG, id.Global)
		maxG = max(maxG, id.Global)
		lmax = max(lmax, uint64(id.Local))
	}
	return fitLayout(minG, maxG, lmax)
}

// with returns the layout of l's members and id.
func (l keyLayout) with(id core.ID) (keyLayout, bool) {
	if l.gmax == 0 {
		return fitLayout(id.Global, id.Global, uint64(id.Local))
	}
	return fitLayout(min(id.Global, int64(l.base+1)), max(id.Global, int64(l.base+l.gmax)), max(uint64(id.Local), l.lmax))
}

// key packs id, and reports false when id lies outside l.
func (l keyLayout) key(id core.ID) (uint64, bool) {
	g := uint64(id.Global) - l.base
	if g-1 >= l.gmax || uint64(id.Local) > l.lmax {
		return 0, false
	}
	k := g<<l.lshift | uint64(id.Local)<<1
	if id.Root {
		k |= 1
	}
	return k, true
}

// id unpacks a key of l.
func (l keyLayout) id(k uint64) core.ID {
	return core.ID{
		Global: int64(k>>l.lshift + l.base),
		Local:  int64(k >> 1 & (1<<(l.lshift-1) - 1)),
		Root:   k&1 == 1,
	}
}

// minIDSetSlots is the smallest table: 64 bytes of keys, one cache line.
const minIDSetSlots = 8

// hashKey is Fibonacci hashing: the table takes the product's top bits,
// which depend on every key bit below them, so dense runs of Global (one
// area root per element) and of Local (siblings inside an area) both spread.
func hashKey(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

// hashID mixes the three components of a wide member with two odd
// multipliers, for the same top-bits indexing.
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
	k, ok := s.lay.key(id)
	if !ok {
		return len(s.wide) != 0 && s.hasWide(id)
	}
	mask := uint64(len(s.keys) - 1)
	for i := hashKey(k) >> s.shift; ; i++ {
		switch s.keys[i&mask] {
		case 0:
			return false
		case k:
			return true
		}
	}
}

func (s *IDSet) hasWide(id core.ID) bool {
	mask := uint64(len(s.wide) - 1)
	for i := hashID(id) >> s.shift; ; i++ {
		switch s.wide[i&mask] {
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
	k, ok := s.lay.key(id)
	if !ok {
		if len(s.wide) == 0 && s.relayout(id) {
			k, _ = s.lay.key(id)
		} else {
			s.addWide(id)
			return
		}
	}
	if 2*(s.n+1) > len(s.keys) {
		s.grow()
	}
	s.insert(k)
}

// insert adds key k to a table with room for it.
func (s *IDSet) insert(k uint64) {
	mask := uint64(len(s.keys) - 1)
	for i := hashKey(k) >> s.shift; ; i++ {
		switch c := &s.keys[i&mask]; *c {
		case k:
			return
		case 0:
			*c = k
			s.n++
			return
		}
	}
}

func (s *IDSet) addWide(id core.ID) {
	if 2*(s.n+1) > len(s.wide) {
		s.grow()
	}
	mask := uint64(len(s.wide) - 1)
	for i := hashID(id) >> s.shift; ; i++ {
		switch c := &s.wide[i&mask]; *c {
		case id:
			return
		case core.ID{}:
			*c = id
			s.n++
			return
		}
	}
}

// relayout widens the layout to take id. Members keep their keys when the
// base and the Local field stay; otherwise the table is laid out again and
// rehashed, or, when no word holds the members and id, moved to the wide
// table. It reports whether the set is still keyed by words.
func (s *IDSet) relayout(id core.ID) bool {
	old, keys := s.lay, s.keys
	lay, ok := old.with(id)
	if ok && (s.n == 0 || lay.base == old.base && lay.lshift == old.lshift) {
		s.lay = lay
		return true
	}
	size := max(len(keys), minIDSetSlots)
	s.keys, s.n = nil, 0
	if ok {
		s.lay = lay
		s.keys = make([]uint64, size)
		s.setShift(size)
		for _, k := range keys {
			if k != 0 {
				nk, _ := lay.key(old.id(k))
				s.insert(nk)
			}
		}
		return true
	}
	s.lay = keyLayout{}
	s.wide = make([]core.ID, size)
	s.setShift(size)
	for _, k := range keys {
		if k != 0 {
			s.addWide(old.id(k))
		}
	}
	return false
}

// grow doubles the table in use. The members are reinserted from the old
// table, so the new one is a fresh allocation even when the old backing array
// has room; callers that know their size up front size the set first and
// never get here.
func (s *IDSet) grow() {
	s.n = 0
	if old := s.wide; len(old) != 0 {
		s.wide = make([]core.ID, 2*len(old))
		s.setShift(len(s.wide))
		for _, id := range old {
			if id != (core.ID{}) {
				s.addWide(id)
			}
		}
		return
	}
	old := s.keys
	s.keys = make([]uint64, max(2*len(old), minIDSetSlots))
	s.setShift(len(s.keys))
	for _, k := range old {
		if k != 0 {
			s.insert(k)
		}
	}
}

func (s *IDSet) setShift(size int) { s.shift = uint8(64 - bits.TrailingZeros(uint(size))) }

// reset empties the set and sizes a table for n members under lay, or a wide
// table when wide. The cost is clearing the table the previous use occupied,
// not the largest this set ever grew to: a one-element seed that draws a
// megabyte table from the pool clears and probes eight slots of it.
func (s *IDSet) reset(n int, lay keyLayout, wide bool) {
	if s.n > 0 {
		clear(s.keys)
		clear(s.wide)
		s.n = 0
	}
	size := minIDSetSlots
	for size < 2*n {
		size <<= 1
	}
	s.lay = lay
	s.keys, s.wide = s.keys[:0], s.wide[:0]
	if wide {
		s.wide = resized(s.wide, size)
	} else {
		s.keys = resized(s.keys, size)
	}
	s.setShift(size)
}

// fill empties the set and makes ids its members: the table is sized and
// laid out for all of them first, so each is keyed straight into it, with
// none of Add's relayout and grow checks. A member set no word holds goes
// through Add into the wide table.
func (s *IDSet) fill(ids []core.ID) {
	lay, ok := layoutOf(ids)
	s.reset(len(ids), lay, !ok)
	if !ok {
		for _, id := range ids {
			s.Add(id)
		}
		return
	}
	for _, id := range ids {
		if id != (core.ID{}) {
			k, _ := lay.key(id)
			s.insert(k)
		}
	}
}

// resized returns size zero slots, in t's backing array when it is large
// enough. Every slot of the backing array must already be zero.
func resized[T any](t []T, size int) []T {
	if size <= cap(t) {
		return t[:size]
	}
	return make([]T, size)
}

// Pool traffic of the two pools below. internal/exec reports it under
// exec.pool_gets / exec.pool_misses together with its own scratch pools;
// package index stays free of obs.
var poolGets, poolMisses atomic.Int64

// PoolTraffic returns how many probes and hit sets were drawn from the pools
// and how many of those draws had to allocate a new one.
func PoolTraffic() (gets, misses int64) { return poolGets.Load(), poolMisses.Load() }

var idSetPool = sync.Pool{New: func() any { poolMisses.Add(1); return new(IDSet) }}

// AcquireHits returns an empty pooled set sized for n members under the
// probe's layout — the hit set of the bottom-up semi-joins, whose members
// are probe members. Release it when done.
func (pr *Probe) AcquireHits(n int) *IDSet {
	poolGets.Add(1)
	s := idSetPool.Get().(*IDSet)
	s.pooled = false
	s.reset(n, pr.Set.lay, len(pr.Set.wide) != 0)
	return s
}

// Release returns a set obtained from AcquireHits to its pool. The caller
// must not use it afterwards.
func (s *IDSet) Release() {
	if s.pooled {
		panic("index: IDSet released twice")
	}
	s.pooled = true
	idSetPool.Put(s)
}
