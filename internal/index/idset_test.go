package index_test

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// refSet is the reference the flat table is held to: the Go map IDSet used
// to be, with the one documented difference that the zero ID is no member.
type refSet map[core.ID]struct{}

func (r refSet) add(id core.ID) {
	if id != (core.ID{}) {
		r[id] = struct{}{}
	}
}

// sameMembers checks Len, Has over every id in universe, and Each against
// the reference.
func sameMembers(t *testing.T, tag string, s *index.IDSet, ref refSet, universe []core.ID) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, reference %d", tag, s.Len(), len(ref))
	}
	for _, id := range universe {
		_, want := ref[id]
		if got := s.Has(id); got != want {
			t.Fatalf("%s: Has(%v) = %v, reference %v", tag, id, got, want)
		}
	}
	if s.Has(core.ID{}) {
		t.Fatalf("%s: the zero ID is reported present", tag)
	}
	seen := make(refSet, len(ref))
	s.Each(func(id core.ID) {
		if _, dup := seen[id]; dup {
			t.Fatalf("%s: Each visited %v twice", tag, id)
		}
		if _, ok := ref[id]; !ok {
			t.Fatalf("%s: Each visited %v, not in the reference", tag, id)
		}
		seen[id] = struct{}{}
	})
	if len(seen) != len(ref) {
		t.Fatalf("%s: Each visited %d members, reference %d", tag, len(seen), len(ref))
	}
}

// idFamilies are identifier populations that stress the hash: ids apart
// only in Root, dense adjacent Globals with one Local (one area root per
// element), dense Locals in one area, strides that are multiples of the
// table size, and random triples.
func idFamilies(rng *rand.Rand, n int) map[string][]core.ID {
	fam := map[string][]core.ID{}
	for i := 0; i < n; i++ {
		g, l := int64(i/2+1), int64(i%7+1)
		fam["root-twins"] = append(fam["root-twins"], core.ID{Global: g, Local: l}, core.ID{Global: g, Local: l, Root: true})
		fam["dense-globals"] = append(fam["dense-globals"], core.ID{Global: int64(i + 1), Local: 1, Root: true})
		fam["dense-locals"] = append(fam["dense-locals"], core.ID{Global: 3, Local: int64(i + 2)})
		fam["strided"] = append(fam["strided"], core.ID{Global: int64(i+1) << 16, Local: int64(i+1) << 20})
		fam["random"] = append(fam["random"], core.ID{Global: rng.Int63(), Local: rng.Int63(), Root: rng.Intn(2) == 0})
	}
	fam["root-flag-only"] = []core.ID{{Root: true}, {Global: 1}, {Local: 1}}
	return fam
}

// TestIDSetMatchesMap grows a zero IDSet by Add alone, across several
// doublings, re-adding members and the zero ID on the way, and holds it to
// the map after every family.
func TestIDSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, ids := range idFamilies(rng, 3000) {
		var s index.IDSet
		ref := refSet{}
		for i, id := range ids {
			if i%3 == 2 {
				continue // held back: looked up, never added
			}
			s.Add(id)
			ref.add(id)
			if i%5 == 0 {
				s.Add(id) // a present id again
				s.Add(core.ID{})
			}
		}
		sameMembers(t, name, &s, ref, ids)
	}
}

// TestIDSetReuse is the pooled life cycle: one table sized by Reset for a
// large probe, then a small one, then one larger than any before, with
// growth past the Reset size in between. No use may see a member of an
// earlier one.
func TestIDSetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	universe := idFamilies(rng, 6000)["random"]
	var s index.IDSet
	for round, use := range []struct{ sized, added int }{
		{4000, 4000}, {1, 1}, {0, 0}, {8, 900}, {6000, 6000}, {16, 16},
	} {
		s.Reset(use.sized)
		if s.Len() != 0 {
			t.Fatalf("round %d: Len = %d after Reset", round, s.Len())
		}
		ref := refSet{}
		off := rng.Intn(len(universe))
		for i := 0; i < use.added; i++ {
			id := universe[(off+i*7)%len(universe)]
			s.Add(id)
			ref.add(id)
		}
		sameMembers(t, "reuse", &s, ref, universe)
	}
}

// TestPooledSetsStartEmpty draws probes and hit sets from the pools the way
// the joins do, and checks every draw starts empty whatever the previous
// holder left behind.
func TestPooledSetsStartEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	universe := idFamilies(rng, 2000)["random"]
	for round := 0; round < 50; round++ {
		n := []int{0, 1, 30, 2000}[rng.Intn(4)]
		ids := universe[:n]
		pr := index.MakeProbe(index.SlicePostings(ids))
		ref := refSet{}
		for _, id := range ids {
			ref.add(id)
		}
		sameMembers(t, "probe", &pr.Set, ref, universe)
		pr.Release()

		hit := index.AcquireIDSet(rng.Intn(64))
		if hit.Len() != 0 {
			t.Fatalf("round %d: pooled hit set starts with %d members", round, hit.Len())
		}
		for _, id := range ids {
			hit.Add(id)
		}
		sameMembers(t, "hit set", hit, ref, universe)
		hit.Release()
	}
}

// TestDoubleReleasePanics: a probe or hit set released twice would sit in
// its pool twice and be handed to two concurrent joins; the second Release
// panics instead.
func TestDoubleReleasePanics(t *testing.T) {
	mustPanic := func(what string, release func()) {
		t.Helper()
		release()
		defer func() {
			if recover() == nil {
				t.Errorf("second Release of a %s did not panic", what)
			}
		}()
		release()
	}
	mustPanic("Probe", index.MakeProbe(index.SlicePostings(nil)).Release)
	mustPanic("hit set", index.AcquireIDSet(0).Release)
}

// TestProbeSharedByShards is the read side under the race detector: one
// probe, built once, read by many goroutines running the kernels the
// executor's shards run, each with a hit set of its own.
func TestProbeSharedByShards(t *testing.T) {
	doc := xmltree.Random(xmltree.RandomConfig{Nodes: 4000, MaxFanout: 6, DepthBias: 0.5, Seed: 5})
	n, _, flat := buildRUID(t, doc)
	var ancs, descs []core.ID
	for _, ids := range flat {
		if len(ids) > len(ancs) {
			ancs, descs = ids, ancs
		} else if len(ids) > len(descs) {
			descs = ids
		}
	}
	sAncs, sDescs := index.SlicePostings(ancs), index.SlicePostings(descs)
	want := index.AncestorSemiJoinPostings(n, sAncs, sDescs)
	wantUp := index.UpwardSemiJoinPostings(n, sAncs, sDescs)
	if len(want) == 0 || len(wantUp) == 0 {
		t.Fatalf("fixture joins nothing: %d ancestors, %d descendants hit", len(want), len(wantUp))
	}

	pr := index.MakeProbe(sAncs)
	defer pr.Release()
	const shards = 8
	hits := make([]*index.IDSet, shards)
	ups := make([][]core.ID, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			run := descs[s*len(descs)/shards : (s+1)*len(descs)/shards]
			hits[s] = index.AcquireIDSet(0)
			index.CollectAncestorHitsRUID(n, &pr.Set, run, hits[s])
			ups[s] = index.AppendUpwardSemiJoinRUID(n, &pr.Set, run, nil)
		}(s)
	}
	wg.Wait()
	var up []core.ID
	for s := 0; s < shards; s++ {
		up = append(up, ups[s]...)
	}
	sameIDs(t, "upward semi-join over shards", up, wantUp)
	sameIDs(t, "ancestor semi-join over shards", index.AppendHitMembersPostings(pr, hits, nil), want)
	for _, h := range hits {
		h.Release()
	}
}

// FuzzIDSet replays an operation tape against the map. Each 18-byte record
// is an opcode and an identifier whose components are folded into small
// ranges, so that adds, re-adds, lookups of absent ids and resets to sizes
// below and above the population all collide often.
func FuzzIDSet(f *testing.F) {
	rec := func(op byte, g, l uint64, root bool) []byte {
		b := make([]byte, 18)
		b[0] = op
		binary.LittleEndian.PutUint64(b[1:], g)
		binary.LittleEndian.PutUint64(b[9:], l)
		if root {
			b[17] = 1
		}
		return b
	}
	var seed []byte
	for i := uint64(0); i < 40; i++ {
		seed = append(seed, rec(0, i, 1, i%2 == 0)...)
	}
	seed = append(seed, rec(3, 2, 0, false)...)
	seed = append(seed, rec(0, 0, 0, false)...)
	seed = append(seed, rec(0, 0, 0, true)...)
	f.Add(seed)
	f.Add(rec(3, 1<<40, 0, false))

	f.Fuzz(func(t *testing.T, tape []byte) {
		var s index.IDSet
		ref := refSet{}
		var universe []core.ID
		for ; len(tape) >= 18; tape = tape[18:] {
			g, l := binary.LittleEndian.Uint64(tape[1:]), binary.LittleEndian.Uint64(tape[9:])
			id := core.ID{Global: int64(g % 64), Local: int64(l % 16), Root: tape[17]&1 == 1}
			if tape[0]&4 != 0 {
				id = core.ID{Global: int64(g), Local: int64(l), Root: tape[17]&1 == 1}
			}
			universe = append(universe, id)
			switch tape[0] & 3 {
			case 0, 1:
				s.Add(id)
				ref.add(id)
			case 2:
				if _, want := ref[id]; s.Has(id) != want {
					t.Fatalf("Has(%v) = %v, reference %v", id, !want, want)
				}
			case 3:
				s.Reset(int(g % 4096))
				clear(ref)
			}
		}
		sameMembers(t, "tape", &s, ref, universe)
	})
}
