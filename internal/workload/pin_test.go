package workload

import (
	"bytes"
	"sync"
	"testing"
)

// fillPages allocates n pages, writing a distinct 32-byte pattern into each,
// and returns their ids.
func fillPages(t *testing.T, p *Pager, n int) []int32 {
	t.Helper()
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = p.Alloc()
		if err := p.Write(ids[i], bytes.Repeat([]byte{byte(i + 1)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	return ids
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestPinPreventsEviction: a pinned frame survives arbitrary pool pressure;
// once unpinned it becomes an ordinary eviction victim again.
func TestPinPreventsEviction(t *testing.T) {
	p := NewPager(4)
	ids := fillPages(t, p, 16)
	p.DropCache()

	pp, err := p.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, id := range ids[1:] {
			if _, err := readPage(p, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p.Stats().Evictions == 0 {
		t.Fatalf("no eviction pressure generated")
	}
	if got := p.PinnedFrames(); got != 1 {
		t.Fatalf("PinnedFrames = %d, want 1", got)
	}
	if d := pp.Data(); d[0] != 1 || d[31] != 1 {
		t.Fatalf("pinned page content corrupted: % x", d[:32])
	}
	pp.Unpin()
	if got := p.PinnedFrames(); got != 0 {
		t.Fatalf("PinnedFrames after Unpin = %d", got)
	}
	// Unpinned, the frame is evictable: a DropCache leaves nothing resident.
	p.DropCache()
	if len(p.frames) != 0 {
		t.Fatalf("%d frames survived DropCache with no pins", len(p.frames))
	}
}

// TestPinNesting: a frame stays resident until every nested pin is released.
func TestPinNesting(t *testing.T) {
	p := NewPager(4)
	ids := fillPages(t, p, 8)
	a, err := p.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	a.Unpin()
	p.DropCache()
	if got := p.PinnedFrames(); got != 1 {
		t.Fatalf("PinnedFrames = %d, want 1 (one pin still held)", got)
	}
	if d := b.Data(); d[0] != 1 {
		t.Fatalf("nested-pinned page lost: %x", d[0])
	}
	b.Unpin()
}

// TestReadUseAfterEvictPoison is the regression for the documented read
// footgun: a caller that holds a frame's bytes past Unpin (an unpinned hold
// across further faults) must observe deterministic poison under RUID_DEBUG
// once the frame is evicted — not silently read whatever page was faulted
// into the recycled frame. Holding the pin is the sanctioned way to keep
// bytes, and keeps them intact under the same pressure.
func TestReadUseAfterEvictPoison(t *testing.T) {
	defer debugChecks.Store(debugChecks.Swap(true))

	p := NewPager(4)
	ids := fillPages(t, p, 8)
	p.DropCache()

	pp, err := p.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	held := pp.Data() // the footgun: held across subsequent fetches
	pp.Unpin()
	pinned, err := p.Pin(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[2:] { // evicts frame 0 (clock order: oldest unpinned first)
		if _, err := readPage(p, id); err != nil {
			t.Fatal(err)
		}
	}
	if held[0] != poisonByte || held[31] != poisonByte {
		t.Fatalf("stale hold not poisoned: % x (want %02x)", held[:4], poisonByte)
	}
	if d := pinned.Data(); d[0] != 2 {
		t.Fatalf("pinned hold corrupted under the same pressure: %x", d[0])
	}
	pinned.Unpin()
}

// TestPinnedPageMisusePanics: Data after Unpin and double Unpin are caller
// bugs that fail loudly.
func TestPinnedPageMisusePanics(t *testing.T) {
	p := NewPager(4)
	ids := fillPages(t, p, 2)
	pp, err := p.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	pp.Unpin()
	mustPanic(t, "Data after Unpin", func() { pp.Data() })
	mustPanic(t, "double Unpin", func() { pp.Unpin() })
}

// TestPinChecksumCatchesScribble: under RUID_DEBUG, mutating a read-pinned
// frame without going through Write is detected at Unpin.
func TestPinChecksumCatchesScribble(t *testing.T) {
	defer debugChecks.Store(debugChecks.Swap(true))

	p := NewPager(4)
	ids := fillPages(t, p, 2)
	pp, err := p.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	pp.Data()[0] ^= 0xFF // caller bug: writing through a read pin
	mustPanic(t, "Unpin after scribble", func() { pp.Unpin() })

	// A legitimate Write bumps the generation; the stale checksum is then
	// not comparable and Unpin must stay quiet.
	pp2, err := p.Pin(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(ids[1], []byte{9}); err != nil {
		t.Fatal(err)
	}
	pp2.Unpin()
}

// TestDropCacheKeepsPinnedFrames: DropCache empties the pool except for
// frames the caller still holds.
func TestDropCacheKeepsPinnedFrames(t *testing.T) {
	p := NewPager(8)
	ids := fillPages(t, p, 6)
	pp, err := p.Pin(ids[3])
	if err != nil {
		t.Fatal(err)
	}
	p.DropCache()
	if len(p.frames) != 1 || p.PinnedFrames() != 1 {
		t.Fatalf("frames=%d pinned=%d after DropCache, want 1/1", len(p.frames), p.PinnedFrames())
	}
	if d := pp.Data(); d[0] != 4 {
		t.Fatalf("pinned frame lost its bytes across DropCache: %x", d[0])
	}
	pp.Unpin()
}

// TestSetCapacityEvictsDown: shrinking the pool evicts unpinned frames to
// the new bound and honours pins.
func TestSetCapacityEvictsDown(t *testing.T) {
	p := NewPager(16)
	ids := fillPages(t, p, 12)
	for _, id := range ids {
		if _, err := readPage(p, id); err != nil {
			t.Fatal(err)
		}
	}
	pp, err := p.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	p.SetCapacity(4)
	if p.capacity != 4 {
		t.Fatalf("capacity = %d", p.capacity)
	}
	if len(p.frames) > 4 {
		t.Fatalf("%d frames resident after SetCapacity(4)", len(p.frames))
	}
	if d := pp.Data(); d[0] != 1 {
		t.Fatalf("pinned frame evicted by SetCapacity")
	}
	pp.Unpin()
}

// TestConcurrentPinsNeverEvicted hammers a tiny pool from many goroutines,
// each verifying its pinned bytes while others generate eviction pressure.
// Run under -race this is the acceptance check that no pinned frame is ever
// recycled: an evicted pin would either panic (poison detection) or read
// the wrong pattern. Debug mode is on so poison and checksums are armed.
func TestConcurrentPinsNeverEvicted(t *testing.T) {
	defer debugChecks.Store(debugChecks.Swap(true))

	p := NewPager(4)
	const pages = 64
	ids := fillPages(t, p, pages)
	p.DropCache()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (i*31 + g*17) % pages
				pp, err := p.Pin(ids[k])
				if err != nil {
					t.Errorf("Pin: %v", err)
					return
				}
				d := pp.Data()
				if d[0] != byte(k+1) || d[31] != byte(k+1) {
					t.Errorf("pinned page %d reads % x, want %02x", k, d[:2], byte(k+1))
					pp.Unpin()
					return
				}
				pp.Unpin()
			}
		}(g)
	}
	wg.Wait()
	if p.PinnedFrames() != 0 {
		t.Fatalf("%d frames still pinned after all goroutines unpinned", p.PinnedFrames())
	}
	if p.Stats().Evictions == 0 {
		t.Fatalf("no evictions under a 4-frame pool and 64 hot pages — pressure test is vacuous")
	}
}
