package xmltree

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// seqLengths are the starting lengths of the model programs: empty, one, and
// each side of one chunk, two chunks and a list as wide as the widest served
// node.
var seqLengths = []int{0, 1, 63, 64, 65, 128, 4096}

func freshNodes(n int) []*Node {
	out := make([]*Node, n)
	for i := range out {
		out[i] = NewElement(fmt.Sprintf("n%d", i))
	}
	return out
}

// checkSeq compares every reader of s with the slice it should equal.
func checkSeq(t *testing.T, what string, s Seq, want []*Node) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", what, s.Len(), len(want))
	}
	for i, x := range want {
		if s.At(i) != x {
			t.Fatalf("%s: At(%d) = %v, want %v", what, i, s.At(i), x)
		}
	}
	if got := s.AppendTo(nil); !slices.Equal(got, want) {
		t.Fatalf("%s: AppendTo disagrees with At", what)
	}
	if len(want) > 0 {
		if i := len(want) / 2; s.Index(want[i]) != i {
			t.Fatalf("%s: Index of entry %d = %d", what, i, s.Index(want[i]))
		}
	}
	if s.Index(NewElement("absent")) != -1 {
		t.Fatalf("%s: Index found a node the sequence does not hold", what)
	}
}

// seqStep applies one random operation to s and to the slice modelling it.
func seqStep(rng *rand.Rand, s *Seq, model []*Node) []*Node {
	x := NewElement("x")
	switch op := rng.Intn(4); {
	case op == 0 && len(model) > 0:
		i := rng.Intn(len(model))
		s.Set(i, x)
		model[i] = x
	case op == 1:
		i := rng.Intn(len(model) + 1)
		s.Insert(i, x)
		model = slices.Insert(model, i, x)
	case op == 2 && len(model) > 0:
		i := rng.Intn(len(model))
		s.Delete(i)
		model = slices.Delete(model, i, i+1)
	default:
		s.Append(x)
		model = append(model, x)
	}
	return model
}

// TestSeqAgainstSlice runs random Set / Insert / Delete / Append programs,
// interleaved with Share, against a plain slice. After a Share the program
// goes on writing the share, and the sequence it was taken from — the origin,
// which a published epoch would still be reading — is re-read after every
// step.
func TestSeqAgainstSlice(t *testing.T) {
	for _, n := range seqLengths {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			model := freshNodes(n)
			s := SeqOf(model)
			model = slices.Clone(model)
			checkSeq(t, "SeqOf", s, model)
			var origin Seq
			var originModel []*Node
			for step := 0; step < 150; step++ {
				if step == 0 || rng.Intn(8) == 0 {
					origin, originModel = s, slices.Clone(model)
					s = s.Share()
				}
				model = seqStep(rng, &s, model)
				what := fmt.Sprintf("length %d seed %d step %d", n, seed, step)
				checkSeq(t, what, s, model)
				checkSeq(t, what+", origin", origin, originModel)
			}
		}
	}
}

// TestSeqPinnedReader is the same program with a reader goroutine pinned on
// the origin for its whole length, as a query pinned on a published epoch is
// while the writer forks it. Under -race it fails if any write of the share
// lands in memory the origin reads.
func TestSeqPinnedReader(t *testing.T) {
	for _, n := range seqLengths {
		model := freshNodes(n)
		origin := SeqOf(model)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if origin.Len() != len(model) {
					t.Errorf("length %d: the origin reads %d entries", n, origin.Len())
					return
				}
				for i, x := range model {
					if origin.At(i) != x {
						t.Errorf("length %d: origin entry %d changed", n, i)
						return
					}
				}
			}
		}()
		rng := rand.New(rand.NewSource(int64(n)))
		s, sm := origin.Share(), slices.Clone(model)
		for step := 0; step < 300; step++ {
			if rng.Intn(16) == 0 {
				s = origin.Share() // a second fork of the same epoch
				sm = slices.Clone(model)
			}
			sm = seqStep(rng, &s, sm)
		}
		close(stop)
		wg.Wait()
		checkSeq(t, fmt.Sprintf("length %d", n), s, sm)
	}
}

// TestSeqSetCopiesOneChunk pins what the type is for: re-pointing one entry
// of a share copies the chunk holding it and no other, once.
func TestSeqSetCopiesOneChunk(t *testing.T) {
	origin := SeqOf(freshNodes(3000))
	s := origin.Share()
	if shared, of := s.SharedChunks(origin); of != 3000/seqChunk || shared != of {
		t.Fatalf("a fresh share has %d of %d chunks in common with its origin", shared, of)
	}
	s.Set(1000, NewElement("x"))
	s.Set(1001, NewElement("y")) // same chunk: already the share's
	if shared, of := s.SharedChunks(origin); shared != of-1 {
		t.Fatalf("after two writes into one chunk %d of %d chunks are shared, want all but one", shared, of)
	}
	s.Set(2999, NewElement("z")) // the tail is the share's own from the start
	if shared, of := s.SharedChunks(origin); shared != of-1 {
		t.Fatalf("a write into the tail cost a chunk: %d of %d shared", shared, of)
	}
	// A short list is one flat slice and has no chunks to share.
	if _, of := SeqOf(freshNodes(seqChunk)).SharedChunks(origin); of != 0 {
		t.Fatalf("a %d-entry list is chunked", seqChunk)
	}
	perSet := testing.AllocsPerRun(100, func() {
		c := origin.Share()
		c.Set(1000, nil)
	})
	if perSet > 5 { // tail, table header, table, ownership bits, one chunk
		t.Fatalf("Share + Set allocates %.0f objects", perSet)
	}
}

// TestNodeStaysInItsSizeClass holds the one-word constraint: a Node is
// allocated in the 128-byte size class, which the four words of its child
// list fill exactly. One more word moves every node of every document to 144
// bytes.
func TestNodeStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 128 {
		t.Fatalf("Node is %d bytes, past the 128-byte size class", size)
	}
	if size := unsafe.Sizeof(Seq{}); size != 4*unsafe.Sizeof(uintptr(0)) {
		t.Fatalf("Seq is %d bytes, want four words", size)
	}
}
