package workload

import (
	"bytes"
	"testing"
)

func TestPagerBasics(t *testing.T) {
	p := NewPager(4)
	ids := make([]int32, 8)
	for i := range ids {
		ids[i] = p.Alloc()
		data := bytes.Repeat([]byte{byte(i + 1)}, 16)
		if err := p.Write(ids[i], data); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	p.DropCache()
	p.ResetStats()
	for i, id := range ids {
		got, err := readPage(p, id)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) || got[15] != byte(i+1) || got[16] != 0 {
			t.Fatalf("page %d content wrong: % x", id, got[:20])
		}
	}
	s := p.Stats()
	if s.Reads != 8 {
		t.Fatalf("cold reads = %d, want 8", s.Reads)
	}
	// Re-reading the last pages hits the pool.
	p.ResetStats()
	if _, err := readPage(p, ids[7]); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats(); got.CacheHits != 1 || got.Reads != 0 {
		t.Fatalf("expected warm hit, got %v", got)
	}
	if _, err := readPage(p, 999); err == nil {
		t.Fatalf("expected out-of-range error")
	}
}

func TestPagerEvictionWritesBackDirtyPages(t *testing.T) {
	p := NewPager(4)
	var ids []int32
	for i := 0; i < 12; i++ {
		id := p.Alloc()
		ids = append(ids, id)
		if err := p.Write(id, []byte{byte(i + 100)}); err != nil {
			t.Fatal(err)
		}
	}
	// Most frames were evicted along the way; all data must survive.
	p.Flush()
	p.DropCache()
	for i, id := range ids {
		got, err := readPage(p, id)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+100) {
			t.Fatalf("page %d lost its write: %d", id, got[0])
		}
	}
	if p.Stats().Writes == 0 {
		t.Fatalf("dirty evictions must count writes")
	}
}

// PinnedFrames returns the number of frames currently held by at least one
// pin — zero once every Pin was matched by an Unpin.
func (p *Pager) PinnedFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

// readPage returns a copy of a page's bytes, faulting it in through a pin
// like every reader of the pool.
func readPage(p *Pager, id int32) ([]byte, error) {
	pp, err := p.Pin(id)
	if err != nil {
		return nil, err
	}
	defer pp.Unpin()
	return append([]byte(nil), pp.Data()...), nil
}
