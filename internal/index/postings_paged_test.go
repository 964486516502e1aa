package index_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// memSource backs a paged posting list with a plain byte slice — the
// minimal BlockSource, for testing the paged decode path without a pager.
type memSource []byte

func (m memSource) ReadRange(off, end uint32, dst []byte) ([]byte, error) {
	if int(end) > len(m) || off > end {
		return nil, fmt.Errorf("range [%d,%d) outside %d bytes", off, end, len(m))
	}
	return append(dst, m[off:end]...), nil
}

// failSource fails every read, modelling a dead page store.
type failSource struct{}

var errDeadStore = errors.New("dead store")

func (failSource) ReadRange(off, end uint32, dst []byte) ([]byte, error) {
	return nil, errDeadStore
}

// pagedTwin returns the paged form of a resident list over its own bytes.
func pagedTwin(t *testing.T, pl *index.PostingList) *index.PostingList {
	t.Helper()
	data, err := pl.DataBytes()
	if err != nil {
		t.Fatal(err)
	}
	ppl, err := index.PagedPostingList(pl.Skips(), pl.Len(), len(data), memSource(data))
	if err != nil {
		t.Fatal(err)
	}
	return ppl
}

// TestPagedPostingListMatchesResident: for every name of several document
// shapes, the paged list must decode block-for-block and end-to-end
// identically to the resident list it was derived from, report itself
// paged, omit the data region from its resident footprint, and fault its
// bytes back verbatim through DataBytes.
func TestPagedPostingListMatchesResident(t *testing.T) {
	docs := map[string]*xmltree.Node{
		"recursive": xmltree.Recursive(3, 6),
		"random":    xmltree.Random(xmltree.RandomConfig{Nodes: 4000, MaxFanout: 6, DepthBias: 0.4, Seed: 11}),
	}
	for shape, doc := range docs {
		_, ix, _ := buildRUID(t, doc)
		for _, name := range ix.Names() {
			pl := ix.Postings(name).List()
			ppl := pagedTwin(t, pl)
			label := shape + "/" + name
			if ppl.PagedBlocks() != ppl.NumBlocks() || pl.PagedBlocks() != 0 {
				t.Fatalf("%s: PagedBlocks() %d and %d of %d", label, ppl.PagedBlocks(), pl.PagedBlocks(), pl.NumBlocks())
			}
			sameIDs(t, label, ppl.AppendAll(nil), pl.AppendAll(nil))
			for b := 0; b < pl.NumBlocks(); b++ {
				got, err := ppl.TryAppendBlock(b, nil)
				if err != nil {
					t.Fatalf("%s block %d: %v", label, b, err)
				}
				sameIDs(t, fmt.Sprintf("%s block %d", label, b), got, pl.AppendBlock(b, nil))
			}
			data, err := pl.DataBytes()
			if err != nil {
				t.Fatal(err)
			}
			back, err := ppl.DataBytes()
			if err != nil {
				t.Fatalf("%s: DataBytes: %v", label, err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("%s: DataBytes differ from resident bytes", label)
			}
			if ppl.SizeBytes() != pl.SizeBytes()-len(data) {
				t.Fatalf("%s: paged footprint %d, want resident %d less its %d data bytes", label, ppl.SizeBytes(), pl.SizeBytes(), len(data))
			}
		}
	}
}

// TestPagedPostingListValidation: structural corruption is rejected at
// construction, and source failures surface as errors (TryAppendBlock) or
// a recoverable *PagedError panic (AppendBlock) — never as wrong results.
func TestPagedPostingListValidation(t *testing.T) {
	ids := make([]core.ID, 0, 600)
	for i := 0; i < 600; i++ {
		ids = append(ids, core.ID{Global: int64(2 + i/7), Local: int64(1 + i%7)})
	}
	pl := index.BuildPostingList(ids)
	data, err := pl.DataBytes()
	if err != nil {
		t.Fatal(err)
	}
	skips := pl.Skips()

	if _, err := index.PagedPostingList(skips, pl.Len()+1, len(data), memSource(data)); err == nil {
		t.Errorf("count mismatch accepted")
	}
	if _, err := index.PagedPostingList(skips, pl.Len(), len(data)+1, memSource(data)); err == nil {
		t.Errorf("data length mismatch accepted")
	}
	if _, err := index.PagedPostingList(skips[1:], pl.Len(), len(data), memSource(data)); err == nil {
		t.Errorf("non-tiling skip table accepted")
	}
	if _, err := index.PagedPostingList(skips, pl.Len(), len(data), nil); err == nil {
		t.Errorf("nil source accepted")
	}

	dead, err := index.PagedPostingList(skips, pl.Len(), len(data), failSource{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dead.TryAppendBlock(0, nil); !errors.Is(err, errDeadStore) {
		t.Errorf("TryAppendBlock over dead store: %v", err)
	}
	func() {
		defer func() {
			r := recover()
			pe, ok := r.(*index.PagedError)
			if !ok {
				t.Errorf("AppendBlock panic = %v, want *PagedError", r)
				return
			}
			if pe.Block != 0 || !errors.Is(pe, errDeadStore) {
				t.Errorf("PagedError = %+v", pe)
			}
		}()
		dead.AppendBlock(0, nil)
	}()

	// Content corruption behind a structurally valid table: a flipped byte
	// in the faulted region must fail the per-fault revalidation.
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x40
	ppl, err := index.PagedPostingList(skips, pl.Len(), len(mut), memSource(mut))
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for b := 0; b < ppl.NumBlocks(); b++ {
		if _, err := ppl.TryAppendBlock(b, nil); err != nil {
			bad++
		}
	}
	if bad == 0 {
		t.Errorf("flipped delta byte decoded cleanly in every block")
	}
}
