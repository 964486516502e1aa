// Package storage holds what a served document persists: the write-ahead
// log of its mutations (wal.go) and the snapshot codec of its
// block-compressed postings (postings.go), the postings section of a
// document bundle. The stored node tables of the paper's RDBMS setting, and
// the simulated pager under them, are the experiment tables' and live in
// internal/workload: no served document reads a node row or a page.
package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/index"
)

// Persistence of the block-compressed postings (index.PostingList). The
// delta bytes and the skip table are written verbatim — the on-disk form is
// the resident form, so a saved index shrinks on disk exactly as much as it
// does in memory, and loading is a validation pass, not a re-encode.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic "ruidpx01"                      8 bytes
//	name count
//	per name, in sorted name order:
//	  name length, name bytes
//	  posting count
//	  block count
//	  per block:
//	    First key                        17 bytes (core.ID.Key)
//	    Last key                         17 bytes
//	    MinGlobal, MaxGlobal             varints
//	    byte length of the delta run     varint (Off is the running sum)
//	    N                                varint
//	  data length, delta data bytes verbatim
//
// Sorted name order makes the encoding deterministic: the same index always
// serializes to the same bytes (the golden test pins this).

// postingsMagic identifies and versions the postings snapshot format.
const postingsMagic = "ruidpx01"

// EncodePostings serializes every posting list of an index.
func EncodePostings(ix *index.NameIndex) ([]byte, error) {
	names := ix.Names()
	sort.Strings(names)
	out := append(make([]byte, 0, 1024), postingsMagic...)
	out = binary.AppendUvarint(out, uint64(len(names)))
	for _, name := range names {
		pl := ix.Postings(name).List()
		if pl == nil {
			return nil, fmt.Errorf("storage: name %q has no block posting list", name)
		}
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		out = binary.AppendUvarint(out, uint64(pl.Len()))
		skips := pl.Skips()
		out = binary.AppendUvarint(out, uint64(len(skips)))
		for _, sk := range skips {
			out = append(out, sk.First.Key()...)
			out = append(out, sk.Last.Key()...)
			out = binary.AppendUvarint(out, uint64(sk.MinGlobal))
			out = binary.AppendUvarint(out, uint64(sk.MaxGlobal))
			out = binary.AppendUvarint(out, uint64(sk.End-sk.Off))
			out = binary.AppendUvarint(out, uint64(sk.N))
		}
		data := pl.DataBytes()
		out = binary.AppendUvarint(out, uint64(len(data)))
		out = append(out, data...)
	}
	return out, nil
}

// walkPostings parses an EncodePostings snapshot section by section,
// invoking fn once per name with the parsed skip table and the section's
// delta data bytes (aliasing b; fn copies what it retains). Every count
// read from b is bounded by the bytes left before anything is sized from
// it, so corrupt input returns an error instead of exhausting memory.
func walkPostings(b []byte, fn func(name string, count int, skips []index.Skip, data []byte) error) error {
	if len(b) < len(postingsMagic) || string(b[:len(postingsMagic)]) != postingsMagic {
		return fmt.Errorf("storage: bad postings magic")
	}
	b = b[len(postingsMagic):]
	uvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("storage: truncated postings snapshot at %s", what)
		}
		b = b[n:]
		return v, nil
	}
	key := func(what string) (core.ID, error) {
		if len(b) < core.KeyBytes {
			return core.ID{}, fmt.Errorf("storage: truncated postings snapshot at %s", what)
		}
		id, ok := core.DecodeKey(b[:core.KeyBytes])
		if !ok {
			return core.ID{}, fmt.Errorf("storage: malformed %s key", what)
		}
		b = b[core.KeyBytes:]
		return id, nil
	}
	nNames, err := uvarint("name count")
	if err != nil {
		return err
	}
	// A name entry takes at least four bytes: one each for its name length,
	// posting count, block count and data length.
	if nNames > uint64(len(b))/4 {
		return fmt.Errorf("storage: %d names in %d bytes", nNames, len(b))
	}
	seen := make(map[string]bool, nNames)
	for i := uint64(0); i < nNames; i++ {
		nameLen, err := uvarint("name length")
		if err != nil {
			return err
		}
		if uint64(len(b)) < nameLen {
			return fmt.Errorf("storage: truncated postings snapshot at name")
		}
		name := string(b[:nameLen])
		b = b[nameLen:]
		if seen[name] {
			return fmt.Errorf("storage: duplicate postings for %q", name)
		}
		seen[name] = true
		count, err := uvarint("posting count")
		if err != nil {
			return err
		}
		nBlocks, err := uvarint("block count")
		if err != nil {
			return err
		}
		if nBlocks > count {
			return fmt.Errorf("storage: %q: %d blocks for %d postings", name, nBlocks, count)
		}
		if nBlocks > uint64(len(b))/minBlockHeader {
			return fmt.Errorf("storage: %q: %d blocks in %d bytes", name, nBlocks, len(b))
		}
		skips := make([]index.Skip, nBlocks)
		off := uint32(0)
		for j := range skips {
			sk := &skips[j]
			if sk.First, err = key("block first"); err != nil {
				return err
			}
			if sk.Last, err = key("block last"); err != nil {
				return err
			}
			minG, err := uvarint("min global")
			if err != nil {
				return err
			}
			maxG, err := uvarint("max global")
			if err != nil {
				return err
			}
			runLen, err := uvarint("block byte length")
			if err != nil {
				return err
			}
			n, err := uvarint("block entry count")
			if err != nil {
				return err
			}
			if minG > uint64(1)<<62 || maxG > uint64(1)<<62 || runLen > uint64(1)<<31 || n > index.BlockSize {
				return fmt.Errorf("storage: %q block %d header out of range", name, j)
			}
			sk.MinGlobal, sk.MaxGlobal = int64(minG), int64(maxG)
			sk.Off, sk.End = off, off+uint32(runLen)
			sk.N = uint16(n)
			off = sk.End
		}
		dataLen, err := uvarint("data length")
		if err != nil {
			return err
		}
		if uint64(len(b)) < dataLen {
			return fmt.Errorf("storage: truncated postings data for %q", name)
		}
		data := b[:dataLen]
		b = b[dataLen:]
		if err := fn(name, int(count), skips, data); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("storage: %d trailing bytes after postings snapshot", len(b))
	}
	return nil
}

// minBlockHeader is the fewest bytes a block header takes: two keys and
// four one-byte varints.
const minBlockHeader = 2*core.KeyBytes + 4

// LoadPostings reads a postings snapshot from r and assembles a resident
// ruid-backed index over rn. Every block is decoded and checked against its
// skip entry (index.PostingListFromParts), and every identifier is climbed
// to the root under rn before it is compared in document order
// (index.FromPostingLists). Corrupt or truncated input returns an error,
// never a panic.
func LoadPostings(r io.Reader, rn *core.Numbering) (*index.NameIndex, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lists := make(map[string]*index.PostingList)
	err = walkPostings(b, func(name string, count int, skips []index.Skip, data []byte) error {
		pl, err := index.PostingListFromParts(skips, count, data)
		if err != nil {
			return fmt.Errorf("storage: %q: %w", name, err)
		}
		lists[name] = pl
		return nil
	})
	if err != nil {
		return nil, err
	}
	return index.FromPostingLists(rn, lists)
}
