package storage

import (
	"fmt"
	"sync"

	"repro/internal/index"
)

// BlockStore keeps named byte blobs — the delta-block data regions of
// persisted posting lists — spread over the pages of a pager it owns: the
// out-of-core backing of one document, one buffer pool and one I/O ledger.
// A blob is immutable once stored; readers fault only the pages a requested
// byte range spans, pinning each frame while its bytes are copied out so
// concurrent faults through the pool can never recycle a frame mid-copy.
type BlockStore struct {
	mu    sync.Mutex
	pager *Pager
	blobs map[string]*blob
}

// blob records where one named byte region lives: its pages in order, and
// its exact length (the final page is partially used).
type blob struct {
	pages []int32
	size  int
}

// NewBlockStore creates an empty block store over a pager of its own whose
// buffer pool holds poolPages pages.
func NewBlockStore(poolPages int) *BlockStore {
	return &BlockStore{pager: NewPager(poolPages), blobs: make(map[string]*blob)}
}

// Pager exposes the store's pager: its pool bound and I/O counters.
func (s *BlockStore) Pager() *Pager { return s.pager }

// PutBlob stores data under name, spreading it over freshly allocated
// pages. Blobs are immutable: storing a name twice is an error.
func (s *BlockStore) PutBlob(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.blobs[name]; dup {
		return fmt.Errorf("storage: blob %q already stored", name)
	}
	b := &blob{size: len(data)}
	for off := 0; off < len(data); off += PageSize {
		end := off + PageSize
		if end > len(data) {
			end = len(data)
		}
		id := s.pager.Alloc()
		if err := s.pager.Write(id, data[off:end]); err != nil {
			return err
		}
		b.pages = append(b.pages, id)
	}
	s.blobs[name] = b
	return nil
}

// ReadRange appends bytes [off, end) of the named blob to dst, faulting
// only the pages the range spans. Each spanned page is pinned exactly while
// its bytes are copied out, then released — the pin discipline that makes
// concurrent readers over one pool safe.
func (s *BlockStore) ReadRange(name string, off, end int, dst []byte) ([]byte, error) {
	s.mu.Lock()
	b, ok := s.blobs[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: unknown blob %q", name)
	}
	if off < 0 || end < off || end > b.size {
		return nil, fmt.Errorf("storage: blob %q range [%d,%d) outside %d bytes", name, off, end, b.size)
	}
	for off < end {
		po := off % PageSize
		n := PageSize - po
		if n > end-off {
			n = end - off
		}
		pp, err := s.pager.Pin(b.pages[off/PageSize])
		if err != nil {
			return nil, err
		}
		dst = append(dst, pp.Data()[po:po+n]...)
		pp.Unpin()
		off += n
	}
	return dst, nil
}

// Source returns an index.BlockSource view of one stored blob, for backing
// a paged posting list.
func (s *BlockStore) Source(name string) index.BlockSource {
	return blobSource{s: s, name: name}
}

// blobSource adapts one named blob to the byte-range interface paged
// posting lists fault through.
type blobSource struct {
	s    *BlockStore
	name string
}

func (b blobSource) ReadRange(off, end uint32, dst []byte) ([]byte, error) {
	return b.s.ReadRange(b.name, int(off), int(end), dst)
}
