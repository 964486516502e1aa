package core

import (
	"bytes"
	"testing"
)

// FuzzDecodeKey feeds arbitrary byte strings to DecodeKey: malformed or
// truncated input must return ok=false and never panic, and every accepted
// buffer must re-encode to itself.
func FuzzDecodeKey(f *testing.F) {
	f.Add([]byte{})
	f.Add(RootID.Key())
	f.Add(ID{Global: 9, Local: 41}.Key())
	f.Add(bytes.Repeat([]byte{0xff}, 17))
	f.Add(bytes.Repeat([]byte{0x00}, 16))
	f.Add(bytes.Repeat([]byte{0x00}, 18))
	f.Fuzz(func(t *testing.T, b []byte) {
		id, ok := DecodeKey(b)
		if !ok {
			return
		}
		if len(b) != 17 {
			t.Fatalf("accepted %d-byte key %x", len(b), b)
		}
		if got := id.Key(); !bytes.Equal(got, b) {
			t.Fatalf("Key(DecodeKey(%x)) = %x", b, got)
		}
	})
}

// FuzzDecodeIDDelta does the same for the block codec: arbitrary buffers
// must decode cleanly or be rejected, and every accepted value must survive
// an encode/decode round trip. (Byte identity is not required: Uvarint
// tolerates overlong varints that the canonical encoder never emits.)
func FuzzDecodeIDDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x80})
	f.Add(AppendIDDelta(nil, RootID, ID{Global: 2, Local: 1, Root: true}))
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Fuzz(func(t *testing.T, b []byte) {
		prev := ID{Global: 3, Local: 7}
		id, n, ok := DecodeIDDelta(b, prev)
		if !ok {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(b))
		}
		enc := AppendIDDelta(nil, prev, id)
		got, m, ok2 := DecodeIDDelta(enc, prev)
		if !ok2 || m != len(enc) || got != id {
			t.Fatalf("round trip of %v via %x failed (got %v ok=%v)", id, enc, got, ok2)
		}
	})
}

// FuzzAppendIDDeltas holds the block decoder to the entry decoder: on
// arbitrary bytes and an arbitrary entry count, AppendIDDeltas must return
// the identifiers DecodeIDDelta yields entry by entry, fail at the entry
// where DecodeIDDelta first fails, report the bytes the decoded entries
// consumed, leave what dst held alone, and never panic.
func FuzzAppendIDDeltas(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0x00, 0x00, 0x02}, uint8(2))
	f.Add(bytes.Repeat([]byte{0xff}, 24), uint8(3))
	// One-byte and multi-byte varints mixed: same-area steps, an area jump,
	// a wide local step, an area root and a jump back.
	var mixed []byte
	prev := ID{Global: 3, Local: 7}
	for _, id := range []ID{
		{Global: 3, Local: 8}, {Global: 3, Local: 9}, {Global: 5000, Local: 2},
		{Global: 5000, Local: 3}, {Global: 5000, Local: 1 << 20}, {Global: 5001, Local: 1, Root: true},
		{Global: 5001, Local: 2}, {Global: 4, Local: 1}, {Global: 4, Local: 2},
	} {
		mixed = AppendIDDelta(mixed, prev, id)
		prev = id
	}
	f.Add(mixed, uint8(9))
	f.Add(mixed, uint8(12))
	f.Add(mixed[:len(mixed)-1], uint8(9))
	f.Fuzz(func(t *testing.T, b []byte, n uint8) {
		prev := ID{Global: 3, Local: 7}
		var want []ID
		wantOK, wantUsed := true, 0
		for cur := prev; len(want) < int(n); {
			id, m, ok := DecodeIDDelta(b[wantUsed:], cur)
			if !ok {
				wantOK = false
				break
			}
			want = append(want, id)
			wantUsed += m
			cur = id
		}
		got, used, ok := AppendIDDeltas([]ID{RootID}, prev, b, int(n))
		if ok != wantOK || used != wantUsed || len(got) != 1+len(want) || got[0] != RootID {
			t.Fatalf("decoded %d entries in %d bytes (ok=%v) over %q; entry by entry: %d in %d (ok=%v)",
				len(got)-1, used, ok, b, len(want), wantUsed, wantOK)
		}
		for i, id := range want {
			if got[1+i] != id {
				t.Fatalf("entry %d: %v, entry by entry %v", i, got[1+i], id)
			}
		}
	})
}
