package xmltree

import "slices"

// Seq is the node sequence the tree and table K are made of: a node's child
// list, the nodes of a K row. It exists so that a path-copying writer who
// re-points one entry of a 3000-entry list copies 64 entries and a table of
// chunk pointers, not the list.
//
// A sequence of at most seqChunk entries is one flat slice, exactly what a
// []*Node field would hold, so narrow nodes and small rows pay nothing. A
// longer one keeps its first ⌊n/64⌋·64 entries in full chunks under a chunk
// table and the rest in the same flat slice, now the tail — which is where
// Append lands, so building a wide list costs what append on a slice does.
//
// Writes are copy-on-first-write per chunk, the rule the K directory follows
// (core.areaIndex): Share hands out a sequence with the same entries that owns
// its tail and chunk table and none of the chunks, and Set copies a chunk the
// first time it writes one it does not own. What the two sequences did not
// write stays shared between them by pointer. As with a forked numbering, the
// sequence Share was called on must not be written afterwards — it is read,
// possibly by other goroutines, through the chunks its shares still hold.
//
// Insert and Delete below the tail re-lay every entry from the touched chunk
// on, as an insert into a slice moves every entry behind it; the chunks in
// front of it stay shared.
//
// The zero Seq is empty. A Seq is a value holding slices: assigning one
// aliases it, as assigning a slice does — use Share.
type Seq struct {
	tail []*Node  // the entries past the last full chunk: all of them when wide is nil
	wide *seqWide // nil until the sequence outgrows one chunk
}

const seqChunk = 64

// seqWide is the chunked front of a wide sequence. It is private to one Seq
// (Share copies it); mine[c] says chunk c is too.
type seqWide struct {
	chunks []*[seqChunk]*Node
	mine   []bool
}

// SeqOf returns a sequence holding a copy of xs.
func SeqOf(xs []*Node) Seq {
	var s Seq
	s.Append(xs...)
	return s
}

// chunked returns how many entries sit in full chunks, in front of the tail.
func (s Seq) chunked() int {
	if s.wide == nil {
		return 0
	}
	return len(s.wide.chunks) * seqChunk
}

// Len returns the number of entries.
func (s Seq) Len() int { return s.chunked() + len(s.tail) }

// At returns entry i. It panics when i is out of range.
func (s Seq) At(i int) *Node {
	run, first := s.Run(i)
	return run[i-first]
}

// Run returns the contiguous stretch of entries that holds entry i — its
// chunk, or the tail — and the position of the stretch's first entry: a
// loop over neighbouring positions reads the stretch and comes back when it
// leaves it, instead of finding the chunk again for every entry. The stretch
// must not be written.
func (s Seq) Run(i int) (run []*Node, first int) {
	if s.wide != nil {
		if c := i / seqChunk; uint(c) < uint(len(s.wide.chunks)) {
			return s.wide.chunks[c][:], c * seqChunk
		}
	}
	return s.tail, s.chunked()
}

// AppendTo appends the entries, in order, to dst.
func (s Seq) AppendTo(dst []*Node) []*Node { return s.appendFrom(dst, 0) }

// appendFrom appends the entries from chunk c on to dst.
func (s Seq) appendFrom(dst []*Node, c int) []*Node {
	if s.wide != nil {
		for _, ch := range s.wide.chunks[c:] {
			dst = append(dst, ch[:]...)
		}
	}
	return append(dst, s.tail...)
}

// Index returns the position of the first entry equal to x, or -1.
func (s Seq) Index(x *Node) int {
	if s.wide != nil {
		for c, ch := range s.wide.chunks {
			if i := slices.Index(ch[:], x); i >= 0 {
				return c*seqChunk + i
			}
		}
	}
	if i := slices.Index(s.tail, x); i >= 0 {
		return s.chunked() + i
	}
	return -1
}

// Share returns a sequence with the same entries that can be written without
// s noticing: it has its own tail and chunk table and shares the chunks. s
// itself must not be written afterwards.
func (s Seq) Share() Seq {
	c := Seq{tail: slices.Clone(s.tail)}
	if s.wide != nil {
		c.wide = &seqWide{chunks: slices.Clone(s.wide.chunks), mine: make([]bool, len(s.wide.chunks))}
	}
	return c
}

// SharedChunks reports how many of s's chunks are, by pointer, the chunk at
// the same position of o — what two epochs of a wide list have in common —
// and how many chunks s has.
func (s Seq) SharedChunks(o Seq) (shared, of int) {
	if s.wide == nil {
		return 0, 0
	}
	for c, ch := range s.wide.chunks {
		if o.wide != nil && c < len(o.wide.chunks) && o.wide.chunks[c] == ch {
			shared++
		}
	}
	return shared, len(s.wide.chunks)
}

// Set replaces entry i. In the chunked part it copies the chunk first unless
// the sequence already owns it. It panics when i is out of range.
func (s *Seq) Set(i int, x *Node) {
	w := s.wide
	c := i / seqChunk
	if w == nil || c >= len(w.chunks) {
		s.tail[i-s.chunked()] = x
		return
	}
	if !w.mine[c] {
		cp := *w.chunks[c]
		w.chunks[c], w.mine[c] = &cp, true
	}
	w.chunks[c][i%seqChunk] = x
}

// Append adds xs at the end. A tail that has filled up becomes a chunk, and a
// run of more than a chunk arriving at once is laid out in one array the
// chunks point into: a sequence built whole (a K row, SeqOf) is then as
// contiguous in memory as the slice it replaces, which is what a scan of 3000
// slots wants — chunks allocated one by one cost it two cold loads at every
// 64th slot. A chunk a later Set copies leaves that array; the array itself
// lives as long as any chunk of it is reachable.
func (s *Seq) Append(xs ...*Node) {
	for len(xs) > 0 {
		if len(s.tail) == seqChunk {
			ch := (*[seqChunk]*Node)(s.tail)
			if cap(s.tail) > seqChunk {
				ch = new([seqChunk]*Node) // do not pin the larger array
				copy(ch[:], s.tail)
			}
			s.push(ch)
			s.tail = make([]*Node, 0, seqChunk)
		}
		if len(s.tail) == 0 && len(xs) > seqChunk {
			whole := (len(xs) - 1) / seqChunk * seqChunk // the rest, at least one entry, is the tail
			block := slices.Clone(xs[:whole])
			for ; len(block) > 0; block = block[seqChunk:] {
				s.push((*[seqChunk]*Node)(block))
			}
			s.tail, xs = nil, xs[whole:]
		}
		n := min(len(xs), seqChunk-len(s.tail))
		s.tail = append(s.tail, xs[:n]...)
		xs = xs[n:]
	}
}

// push adds a full chunk, which the sequence owns, behind the others.
func (s *Seq) push(ch *[seqChunk]*Node) {
	if s.wide == nil {
		s.wide = new(seqWide)
	}
	s.wide.chunks = append(s.wide.chunks, ch)
	s.wide.mine = append(s.wide.mine, true)
}

// cut removes the entries from the chunk holding position i on (from the
// tail's start when i lies there) and returns them with the position the
// first of them had.
func (s *Seq) cut(i int) (rest []*Node, from int) {
	c := 0
	if s.wide != nil {
		c = min(i/seqChunk, len(s.wide.chunks))
	}
	rest = s.appendFrom(make([]*Node, 0, s.Len()-c*seqChunk+1), c)
	if c == 0 {
		*s = Seq{}
		return rest, 0
	}
	clear(s.wide.chunks[c:]) // the table stays; the chunks it held go
	s.wide.chunks, s.wide.mine, s.tail = s.wide.chunks[:c], s.wide.mine[:c], nil
	return rest, c * seqChunk
}

// Insert makes x entry i, moving the entries from i on one place up. It
// panics when i is out of range.
func (s *Seq) Insert(i int, x *Node) {
	if j := i - s.chunked(); j >= 0 && len(s.tail) < seqChunk {
		s.tail = slices.Insert(s.tail, j, x)
		return
	}
	if i < 0 || i > s.Len() {
		panic("xmltree: Seq.Insert position out of range")
	}
	rest, from := s.cut(i)
	s.Append(rest[:i-from]...)
	s.Append(x)
	s.Append(rest[i-from:]...)
}

// Delete removes entry i, moving the entries behind it one place down. It
// panics when i is out of range.
func (s *Seq) Delete(i int) {
	if j := i - s.chunked(); j >= 0 {
		s.tail = slices.Delete(s.tail, j, j+1)
		return
	}
	if i < 0 {
		panic("xmltree: Seq.Delete position out of range")
	}
	rest, from := s.cut(i)
	s.Append(rest[:i-from]...)
	s.Append(rest[i-from+1:]...)
}
