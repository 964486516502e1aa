package core

// The table K. A flat sorted slice would make every fork copy O(areas)
// pointers — on large documents that copy (and the garbage-collector work of
// scanning it) dominates an area-confined write. Chunking the sorted rows
// turns the per-fork cost into one directory copy (≈ areas / areaChunkSize
// entries) plus one chunk copy per touched area: untouched chunks are shared
// with the numbering the fork was taken from, in the same path-copying style
// as the tree and the rows' node sequences (xmltree.Seq, which chunks a child
// list and a row's nodes the same way, at 64 entries; the directory stays on
// its own bookkeeping because it is searched by key and drops rows, neither
// of which a positional sequence does).

// areaChunkSize bounds both the directory length and the size of the chunk
// a fork has to copy when one of its rows changes.
const areaChunkSize = 256

// areaIndex is a chunked view of the table K sorted by global index: the
// concatenation of chunks is the full sorted row list, and firstG[i] caches
// chunks[i][0].global for the directory search.
//
// Writes are copy-on-first-write at both levels. mine[i] says chunk i is
// private to this index, and a row is private when its owner field is this
// index's tag; anything else is shared with the index this one was forked
// from and is copied before it is written (ownChunk, own). The index Build
// and Load produce owns everything, so the same writes edit it in place.
type areaIndex struct {
	chunks [][]*area
	firstG []int64
	mine   []bool
	rows   int
	tag    *ownerTag
}

// ownerTag is an index's identity as its rows carry it. It is a separate
// object, not the index: a row outlives the index that made it — later forks
// share it — and must not keep that index's directory, chunks and the rows
// they have since replaced alive.
type ownerTag struct{ _ byte }

// newAreaIndex chunks a slice of K rows already sorted by global index and
// takes ownership of them. Each chunk is an allocation of its own: a window
// of sorted would keep the whole array alive, and with it every row a later
// fork replaced, for as long as any fork shares one chunk.
func newAreaIndex(sorted []*area) *areaIndex {
	ix := &areaIndex{rows: len(sorted), tag: new(ownerTag)}
	for _, a := range sorted {
		a.owner = ix.tag
	}
	for len(sorted) > 0 {
		n := min(areaChunkSize, len(sorted))
		ix.chunks = append(ix.chunks, append([]*area(nil), sorted[:n]...))
		ix.firstG = append(ix.firstG, sorted[0].global)
		ix.mine = append(ix.mine, true)
		sorted = sorted[n:]
	}
	return ix
}

// fork returns an index with the same rows that owns none of them: only the
// directory is copied.
func (ix *areaIndex) fork() *areaIndex {
	return &areaIndex{
		chunks: append([][]*area(nil), ix.chunks...),
		firstG: append([]int64(nil), ix.firstG...),
		mine:   make([]bool, len(ix.chunks)),
		rows:   ix.rows,
		tag:    new(ownerTag),
	}
}

// locate returns the position of the chunk that would hold global index g
// (the last chunk whose first row is ≤ g), or -1 when g sorts before every
// row. Hand-rolled binary search: this sits on the krow hot path, where a
// sort.Search closure would allocate.
func (ix *areaIndex) locate(g int64) int {
	lo, hi := 0, len(ix.firstG)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.firstG[mid] <= g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// slot returns where the K row with global index g sits: chunk ci, entry i.
func (ix *areaIndex) slot(g int64) (ci, i int, ok bool) {
	if ci = ix.locate(g); ci < 0 {
		return 0, 0, false
	}
	chunk := ix.chunks[ci]
	lo, hi := 0, len(chunk)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if chunk[mid].global < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ci, lo, lo < len(chunk) && chunk[lo].global == g
}

// find returns the K row with global index g: slot, spelled out again
// because every parent computation of every join passes through here.
func (ix *areaIndex) find(g int64) (*area, bool) {
	ci := ix.locate(g)
	if ci < 0 {
		return nil, false
	}
	chunk := ix.chunks[ci]
	lo, hi := 0, len(chunk)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if chunk[mid].global < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(chunk) && chunk[lo].global == g {
		return chunk[lo], true
	}
	return nil, false
}

// forEach visits every row in ascending global order.
func (ix *areaIndex) forEach(fn func(*area)) {
	for _, chunk := range ix.chunks {
		for _, a := range chunk {
			fn(a)
		}
	}
}

// ownChunk makes chunk ci writable.
func (ix *areaIndex) ownChunk(ci int) []*area {
	if !ix.mine[ci] {
		ix.chunks[ci] = append([]*area(nil), ix.chunks[ci]...)
		ix.mine[ci] = true
	}
	return ix.chunks[ci]
}

// put installs a, which the index owns from here on, in place of the row
// with the same global index.
func (ix *areaIndex) put(a *area) {
	ci, i, _ := ix.slot(a.global)
	a.owner = ix.tag
	ix.ownChunk(ci)[i] = a
}

// own returns the row with global index g, writable: a row shared with the
// index this one was forked from is copied first, and its nodes with it as
// xmltree.Seq.Share copies — the chunk table and a tail of under 64 slots,
// the chunks themselves when a slot in them is re-pointed (slots and lower are
// replaced whole, never edited, and stay shared).
func (ix *areaIndex) own(g int64) *area {
	ci, i, _ := ix.slot(g)
	a := ix.chunks[ci][i]
	if a.owner != ix.tag {
		na := *a
		na.owner = ix.tag
		na.nodes = a.nodes.Share()
		a = &na
		ix.ownChunk(ci)[i] = a
	}
	return a
}

// drop removes the row with global index g. The κ-ary frame arithmetic
// tolerates the gap; a chunk left empty leaves the directory.
func (ix *areaIndex) drop(g int64) {
	ci, i, ok := ix.slot(g)
	if !ok {
		return
	}
	chunk := ix.ownChunk(ci)
	chunk = append(chunk[:i], chunk[i+1:]...)
	ix.rows--
	if len(chunk) == 0 {
		ix.chunks = append(ix.chunks[:ci], ix.chunks[ci+1:]...)
		ix.firstG = append(ix.firstG[:ci], ix.firstG[ci+1:]...)
		ix.mine = append(ix.mine[:ci], ix.mine[ci+1:]...)
		return
	}
	ix.chunks[ci] = chunk
	ix.firstG[ci] = chunk[0].global
}
