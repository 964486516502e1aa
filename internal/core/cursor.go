package core

import "fmt"

// ParentCursor is RParent for one scan. A join climbs from every posting of
// a document-ordered list, and the K rows it asks for follow a pattern that a
// binary search per step ignores. A posting's own area is mostly the previous
// posting's or one a few rows further on, because document order visits the
// areas of one frame level in ascending global order. The area above an
// area root is one of the few upper areas of the frame, asked for over and
// over. So the cursor finds a posting's own row with a finger that walks
// forward through the sorted chunks of K, and keeps a small memo of upper
// rows. It falls back to the directory search only for a row that is behind
// the finger and not in the memo, or too far ahead to walk to. On the five
// join and twig queries of the read_join benchmark workload, 72 % of lookups
// end at the finger or its walk, 27 % at the memo or the finger, and under
// 0.2 % in a search.
//
// A cursor belongs to one goroutine and one scan of one numbering. Reset
// binds it before every scan (index.ForEachRun does), so it never outlives
// an operation and never shares state through a Numbering. Its answers are
// RParent's exactly; under RUID_DEBUG every one is checked against it.
type ParentCursor struct {
	n     *Numbering
	ix    *areaIndex
	kappa int64

	// The finger: the row at entry i of chunk ci, copied out of it.
	ci, i int
	row   rowKey

	memo [cursorMemo]rowKey // upper rows, direct-mapped by global index

	chainA, chainB []ID // CompareOrder's climbs, kept across calls and scans
}

// rowKey is the part of a K row that line 7 of rparent reads: a copy in the
// cursor costs no pointer chase on the next hit.
type rowKey struct {
	global, rootLocal, fanout int64
}

const (
	// cursorMemo is the memo's size, a power of two. The frame above the
	// areas a scan visits is shallow (κ is in the hundreds), so a handful
	// of upper rows serves a whole list.
	cursorMemo = 16
	// cursorWalk bounds the finger's forward walk; beyond it the directory
	// search is cheaper than chasing more rows.
	cursorWalk = 8
)

func keyOf(a *area) rowKey { return rowKey{global: a.global, rootLocal: a.rootLocal, fanout: a.fanout} }

// Reset binds the cursor to n, with the finger on the first row (every
// table K holds the root area's), and forgets every row it held. The zero
// cursor must be Reset before use.
func (c *ParentCursor) Reset(n *Numbering) {
	c.n, c.ix, c.kappa = n, n.k, n.kappa
	c.ci, c.i, c.row = 0, 0, keyOf(n.k.chunks[0][0])
	c.memo = [cursorMemo]rowKey{}
}

// Parent is RParent through the cursor: the parent of id and true, or false
// for the document root and for an identifier RParent rejects — a foreign
// one ends a climb the way the root does.
func (c *ParentCursor) Parent(id ID) (ID, bool) {
	p, ok := c.parent(id)
	if debugChecks {
		c.check(id, p, ok)
	}
	return p, ok
}

func (c *ParentCursor) parent(id ID) (ID, bool) {
	if id == RootID {
		return ID{}, false
	}
	g := id.Global
	if id.Root {
		g = (g-2)/c.kappa + 1
	}
	// Every row's global index is at least 1; an unused memo entry is zero
	// and must not answer for a foreign 0.
	if g < 1 {
		return ID{}, false
	}
	var row rowKey
	var ok bool
	if id.Root {
		row, ok = c.upper(g)
	} else {
		row, ok = c.own(g)
	}
	if !ok {
		return ID{}, false
	}
	if l := (id.Local-2)/row.fanout + 1; l != 1 {
		return ID{Global: row.global, Local: l}, true
	}
	if row.global == 1 {
		return RootID, true
	}
	return ID{Global: row.global, Local: row.rootLocal, Root: true}, true
}

// own finds the row of an area a non-root identifier sits in: the finger's
// row, a row the finger reaches by a short walk forward, an upper row the
// memo holds (a climb continuing inside an ancestor area), or the directory
// search, which moves the finger to the row it found.
func (c *ParentCursor) own(g int64) (rowKey, bool) {
	if g == c.row.global {
		return c.row, true
	}
	if g > c.row.global {
		chunks := c.ix.chunks
		ci, i := c.ci, c.i
		for range cursorWalk {
			if i++; i == len(chunks[ci]) {
				if ci++; ci == len(chunks) {
					return rowKey{}, false // past the last row
				}
				i = 0
			}
			a := chunks[ci][i]
			if a.global >= g {
				c.ci, c.i, c.row = ci, i, keyOf(a)
				return c.row, a.global == g
			}
		}
	} else if m := c.memo[g&(cursorMemo-1)]; m.global == g {
		return m, true
	}
	ci, i, ok := c.ix.slot(g)
	if !ok {
		return rowKey{}, false
	}
	c.ci, c.i, c.row = ci, i, keyOf(c.ix.chunks[ci][i])
	return c.row, true
}

// upper finds the row above an area root: the memo's, or the directory
// search's, which the memo then keeps. The finger stays where the postings
// have taken it.
func (c *ParentCursor) upper(g int64) (rowKey, bool) {
	if g == c.row.global {
		return c.row, true
	}
	m := &c.memo[g&(cursorMemo-1)]
	if m.global == g {
		return *m, true
	}
	a, ok := c.ix.find(g)
	if !ok {
		return rowKey{}, false
	}
	*m = keyOf(a)
	return *m, true
}

// AppendChain appends id followed by its ancestor chain up to the document
// root to dst (id first, root last: the layout CompareChains reads).
func (c *ParentCursor) AppendChain(dst []ID, id ID) []ID {
	dst = append(dst, id)
	for {
		p, ok := c.Parent(id)
		if !ok {
			return dst
		}
		dst = append(dst, p)
		id = p
	}
}

// CompareOrder is Numbering.CompareOrderID through the cursor: each
// identifier climbs once, into a chain buffer the cursor owns, and
// CompareChains decides from the two chains.
func (c *ParentCursor) CompareOrder(a, b ID) int {
	if a == b {
		return 0
	}
	c.chainA = c.AppendChain(c.chainA[:0], a)
	c.chainB = c.AppendChain(c.chainB[:0], b)
	return CompareChains(c.chainA, c.chainB)
}

// check panics unless the cursor answered id as RParent does.
func (c *ParentCursor) check(id, p ID, ok bool) {
	want, wantOK, err := c.n.RParent(id)
	if ok != (wantOK && err == nil) || (ok && p != want) {
		panic(fmt.Sprintf("core: parent cursor answered %s for %s (%v); RParent answers %s (%v, %v)", p, id, ok, want, wantOK, err))
	}
}
