package storage

import (
	"fmt"
	"sync"

	"repro/internal/index"
	"repro/internal/obs"
)

// BlockStore keeps named byte blobs — the delta-block data regions of
// persisted posting lists — spread over pager pages. A blob is immutable
// once stored; readers fault only the pages a requested byte range spans,
// pinning each frame while its bytes are copied out so concurrent faults
// through the shared pool can never recycle a frame mid-copy.
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

// NewBlockStoreOn creates a block store whose pages live in an existing
// pager — the DocStore layout, where postings blobs and the node table
// share one buffer pool.
func NewBlockStoreOn(p *Pager) *BlockStore {
	return &BlockStore{pager: p, blobs: make(map[string]*blob)}
}

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

// DocStore is the out-of-core backing of one document: a single pager — one
// buffer pool, one I/O ledger — holding both the postings block blobs and
// the node-payload B+tree. Table K, the skip tables, and the DataGuide stay
// memory-resident in the query engine; everything DocStore holds is faulted
// on demand.
type DocStore struct {
	pager  *Pager
	Blocks *BlockStore
	Nodes  *NodeStore
}

// NewDocStore creates an empty document store whose shared buffer pool
// holds poolPages pages.
func NewDocStore(poolPages int) *DocStore {
	p := NewPager(poolPages)
	return &DocStore{pager: p, Blocks: NewBlockStoreOn(p), Nodes: NewNodeStoreOn(p)}
}

// Pager exposes the shared pager.
func (ds *DocStore) Pager() *Pager { return ds.pager }

// Stats returns the shared pager's I/O counters.
func (ds *DocStore) Stats() IOStats { return ds.pager.Stats() }

// ResetStats zeroes the shared pager's I/O counters.
func (ds *DocStore) ResetStats() { ds.pager.ResetStats() }

// DropCache empties the shared buffer pool (cold start).
func (ds *DocStore) DropCache() { ds.pager.DropCache() }

// Flush writes every dirty frame back.
func (ds *DocStore) Flush() { ds.pager.Flush() }

// SetObserver mirrors the shared pager's I/O counters into r.
func (ds *DocStore) SetObserver(r *obs.Registry) { ds.pager.SetObserver(r) }
