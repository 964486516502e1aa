package index_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
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

// sameMembers checks Len and Has over every id in universe against the
// reference.
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
}

// idFamilies are identifier populations that stress the hash and the word
// layout: ids apart only in Root, dense adjacent Globals with one Local (one
// area root per element), dense Locals in one area, strides that are
// multiples of the table size, random triples (no word holds them), members
// at the limits of a layout's fields and of int64, negative components, a
// Global near 2^61 beside 32-bit Locals (no word holds them either), and a
// population whose later members fall outside the layout of its earlier ones.
func idFamilies(rng *rand.Rand, n int) map[string][]core.ID {
	fam := map[string][]core.ID{}
	for i := 0; i < n; i++ {
		g, l := int64(i/2+1), int64(i%7+1)
		fam["root-twins"] = append(fam["root-twins"], core.ID{Global: g, Local: l}, core.ID{Global: g, Local: l, Root: true})
		fam["dense-globals"] = append(fam["dense-globals"], core.ID{Global: int64(i + 1), Local: 1, Root: true})
		fam["dense-locals"] = append(fam["dense-locals"], core.ID{Global: 3, Local: int64(i + 2)})
		fam["strided"] = append(fam["strided"], core.ID{Global: int64(i+1) << 16, Local: int64(i+1) << 20})
		fam["random"] = append(fam["random"], core.ID{Global: rng.Int63(), Local: rng.Int63(), Root: rng.Intn(2) == 0})
		// Past the first 64 members every 16th one moves the base down or
		// widens the Local field.
		out := core.ID{Global: int64(1000 + i), Local: int64(i % 5)}
		if i >= 64 && i%16 == 0 {
			out = core.ID{Global: int64(1000 - i), Local: int64(i) << (i % 30)}
		}
		fam["outside-earlier"] = append(fam["outside-earlier"], out)
	}
	fam["root-flag-only"] = []core.ID{{Root: true}, {Global: 1}, {Local: 1}}
	// Global span 2^40 (41 bits) and Local 2^22-1 (22 bits plus Root): the
	// key fills the word to its last bit.
	fam["field-limits"] = []core.ID{
		{Global: 1, Local: 0}, {Global: 1 << 40, Local: 1<<22 - 1, Root: true},
		{Global: 1 << 40, Local: 0}, {Global: 1, Local: 1<<22 - 1, Root: true},
		{Global: 1 << 39, Local: 1 << 21}, {Global: 1<<40 - 1, Local: 1<<22 - 2, Root: true},
		{Global: 2, Local: 1}, {Global: 1 << 40, Local: 1<<22 - 1},
		{Global: 1 << 41, Local: 0}, {Global: 1, Local: 1 << 22},
	}
	fam["int64-limits"] = []core.ID{
		{Global: math.MaxInt64, Local: 1}, {Global: math.MaxInt64 - 3, Local: 7, Root: true},
		{Global: math.MaxInt64 - 1, Local: 0}, {Global: math.MaxInt64, Local: 1, Root: true},
		{Global: math.MinInt64, Local: 2}, {Global: math.MinInt64 + 1, Local: 2, Root: true},
		{Global: math.MaxInt64 - 2, Local: math.MaxInt64},
	}
	fam["negative"] = []core.ID{
		{Global: -5, Local: 3}, {Global: -1, Local: 1, Root: true}, {Global: -9, Local: 0},
		{Global: 0, Local: 2}, {Global: -3, Local: 5, Root: true}, {Global: -2, Local: 4},
		{Global: 7, Local: -1}, {Global: -4, Local: -8, Root: true}, {Global: 1, Local: math.MinInt64},
	}
	for i := int64(0); i < 40; i++ {
		fam["no-word"] = append(fam["no-word"],
			core.ID{Global: 1<<61 - i, Local: 1<<32 - 1 - i}, core.ID{Global: 1 + i, Local: 1 + i%3, Root: i%2 == 1})
	}
	return fam
}

// TestIDSetMatchesMap grows a zero IDSet by Add alone, across several
// doublings and layouts, re-adding members and the zero ID on the way, and
// holds it to the map after every family. Each family then goes through a
// probe of its first half and a hit set laid out by that probe, which takes
// the second half's adds outside the probe's layout.
func TestIDSetMatchesMap(t *testing.T) {
	// The families whose first half no word holds, and those whose whole.
	wideHalf := map[string]bool{"random": true, "no-word": true}
	wideAll := map[string]bool{"random": true, "no-word": true, "negative": true, "int64-limits": true, "field-limits": true}
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
		if s.Wide() != wideAll[name] {
			t.Errorf("%s: wide keys %v after every add, want %v", name, s.Wide(), wideAll[name])
		}

		half := ids[:len(ids)/2]
		pr := index.MakeProbe(index.SlicePostings(half))
		probeRef := refSet{}
		for _, id := range half {
			probeRef.add(id)
		}
		sameMembers(t, name+" probe", &pr.Set, probeRef, ids)
		if pr.Set.Wide() != wideHalf[name] {
			t.Errorf("%s: probe of the first half has wide keys %v, want %v", name, pr.Set.Wide(), wideHalf[name])
		}
		hit := pr.AcquireHits(len(half) / 4)
		hitRef := refSet{}
		for i, id := range ids {
			if i%3 != 2 {
				hit.Add(id)
				hitRef.add(id)
			}
		}
		sameMembers(t, name+" hit set", hit, hitRef, ids)
		if hit.Wide() != wideAll[name] {
			t.Errorf("%s: hit set has wide keys %v, want %v", name, hit.Wide(), wideAll[name])
		}
		hit.Release()
		pr.Release()
	}
}

// TestProbeKeysAreWords builds a probe from every name's postings of XMark
// 500, numbered with the served partition, and checks that each one keys its
// members by single words: the document's identifiers need 26 + 14 bits.
func TestProbeKeysAreWords(t *testing.T) {
	doc := xmltree.XMark(500, 1)
	n, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 64, AdjustFanout: true}})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc.DocumentElement(), n)
	for _, name := range ix.Names() {
		ps := ix.Postings(name)
		pr := index.MakeProbe(ps)
		if pr.Set.Wide() || pr.Set.Len() != ps.Len() {
			t.Errorf("%s: probe of %d postings holds %d members, wide keys %v", name, ps.Len(), pr.Set.Len(), pr.Set.Wide())
		}
		pr.Release()
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

		hit := pr.AcquireHits(rng.Intn(64))
		pr.Release()
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
	mustPanic("hit set", index.MakeProbe(index.SlicePostings(nil)).AcquireHits(0).Release)
}

// TestProbeSharedByShards is the read side under the race detector: one
// probe, built once, read by many goroutines at once, each running the
// kernels over its own shard of the descendants with a hit set of its own.
// The shards' rows, concatenated in shard order, are the executor's answer.
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
	want := exec.Default().AncestorSemiJoin(n, sAncs, sDescs)
	wantUp := exec.Default().UpwardSemiJoin(n, sAncs, sDescs)
	if len(want) == 0 || len(wantUp) == 0 {
		t.Fatalf("fixture joins nothing: %d ancestors, %d descendants hit", len(want), len(wantUp))
	}

	pr := index.MakeProbe(sAncs)
	defer pr.Release()
	const shards = 8
	hits := make([][]core.ID, shards)
	ups := make([][]core.ID, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			run := descs[s*len(descs)/shards : (s+1)*len(descs)/shards]
			hit := pr.AcquireHits(0)
			defer hit.Release()
			var c core.ParentCursor
			c.Reset(n)
			index.CollectAncestorHitsRUID(&c, &pr.Set, run, hit)
			hits[s] = index.AppendHitMembersPostings(pr, hit, nil)
			ups[s] = index.AppendUpwardSemiJoinRUID(&c, &pr.Set, run, nil)
		}(s)
	}
	wg.Wait()
	var up []core.ID
	hit := make(map[core.ID]bool)
	for s := 0; s < shards; s++ {
		up = append(up, ups[s]...)
		for _, a := range hits[s] {
			hit[a] = true
		}
	}
	var anc []core.ID
	for _, a := range ancs {
		if hit[a] {
			anc = append(anc, a)
		}
	}
	sameIDs(t, "upward semi-join over shards", up, wantUp)
	sameIDs(t, "ancestor semi-join over shards", anc, want)
}

// FuzzIDSet replays an operation tape against the map. Each 18-byte record
// is an opcode and an identifier whose components are folded into small
// ranges (full range with opcode bit 4), so that adds, re-adds, lookups of
// absent ids and resets to sizes below and above the population all collide
// often. A reset with opcode bit 8 replaces the set by a hit set laid out by
// a probe of the members so far, so that later adds may fall outside the
// probe's layout.
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
	cat := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
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
	neg := func(v int64) uint64 { return uint64(v) }
	// Members at the field limits: a 41-bit Global span beside a 22-bit
	// Local fills the word; one more bit either way does not fit.
	f.Add(cat(rec(4, 1, 0, false), rec(4, 1<<40, 1<<22-1, true), rec(6, 1<<40, 1<<22-1, true),
		rec(4, 1<<41, 0, false), rec(6, 1, 1<<22, false), rec(4, math.MaxInt64, 1, false), rec(6, math.MaxInt64, 1, false)))
	// Negative components.
	f.Add(cat(rec(4, neg(-5), 3, false), rec(4, neg(-1), 1, true), rec(6, neg(-5), 3, false),
		rec(4, 7, neg(-1), false), rec(6, 7, neg(-1), false), rec(4, neg(math.MinInt64), 2, true)))
	// Adds outside the layout of a probe of the members so far.
	f.Add(cat(rec(4, 100, 3, false), rec(4, 101, 2, true), rec(4, 140, 1, false), rec(11, 5, 0, false),
		rec(4, 90, 3, false), rec(4, 120, 1<<20, true), rec(4, 1<<61, 1<<32-1, false), rec(6, 100, 3, false)))
	// Members that no word holds.
	f.Add(cat(rec(4, 1<<61, 1<<32-1, false), rec(4, 1, 1, true), rec(6, 1<<61, 1<<32-1, false),
		rec(15, 0, 0, false), rec(4, 2, 2, false), rec(6, 1, 1, true)))

	f.Fuzz(func(t *testing.T, tape []byte) {
		s := new(index.IDSet)
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
				if tape[0]&8 == 0 {
					s.Reset(int(g % 4096))
					clear(ref)
					continue
				}
				var members []core.ID
				for _, m := range universe {
					if _, ok := ref[m]; ok && !slices.Contains(members, m) {
						members = append(members, m)
					}
				}
				pr := index.MakeProbe(index.SlicePostings(members))
				sameMembers(t, "probe", &pr.Set, ref, universe)
				s = pr.AcquireHits(int(g % 64))
				pr.Release()
				for _, m := range members {
					s.Add(m)
				}
			}
		}
		sameMembers(t, "tape", s, ref, universe)
	})
}
