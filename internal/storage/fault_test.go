package storage

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// WAL fault injection: the write path's durability claims live or die on
// recovery behavior under torn writes, truncated tails and bit rot. Each
// scenario is injected directly into the on-disk segment, the way a
// crashed or corrupted disk would leave it; the helpers live in
// wal_test.go.

// TestWALTornWriteDropped: a crash mid-append leaves half a frame at the
// tail. Recovery must replay every record before it and cut the torn bytes,
// and the log must keep working.
func TestWALTornWriteDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.wal")
	walRoundTrip(t, path, SyncAlways, [][]byte{[]byte("one"), []byte("two")})

	// Simulate the torn write: a full frame header promising 100 bytes but
	// only 7 payload bytes on disk.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], 100)
	binary.LittleEndian.PutUint32(frame[4:8], 0xDEADBEEF)
	f.Write(frame[:])
	f.Write([]byte("partial"))
	f.Close()

	got, w := recoverAll(t, path)
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want 2", len(got))
	}
	if st := w.Stats(); st.Truncated != 8+7 {
		t.Fatalf("truncated %d bytes, want 15", st.Truncated)
	}
	if _, err := w.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, w2 := recoverAll(t, path)
	w2.Close()
	if len(got) != 3 || string(got[2]) != "three" {
		t.Fatalf("after repair+append: %q", got)
	}
}

// TestWALTruncatedTail: the file ends mid frame header (crash during the
// length word). Every preceding record survives.
func TestWALTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.wal")
	walRoundTrip(t, path, SyncAlways, [][]byte{[]byte("aa"), []byte("bb"), []byte("cc")})
	info, _ := os.Stat(path)
	if err := os.Truncate(path, info.Size()-(8+2)-3); err != nil {
		t.Fatal(err) // cut the last record and 3 bytes into the one before
	}
	got, w := recoverAll(t, path)
	defer w.Close()
	if len(got) != 1 || string(got[0]) != "aa" {
		t.Fatalf("recovered %q, want [aa]", got)
	}
}

// TestWALCRCCorruption: flipping one payload bit invalidates that record
// and everything after it — a corrupt middle means the tail cannot be
// trusted — while the prefix replays intact.
func TestWALCRCCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.wal")
	walRoundTrip(t, path, SyncAlways, [][]byte{[]byte("first"), []byte("second"), []byte("third")})

	// Flip a bit inside "second"'s payload.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(walMagic) + 8 + len("first") + 8 // start of second payload
	b[off] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	got, w := recoverAll(t, path)
	defer w.Close()
	if len(got) != 1 || string(got[0]) != "first" {
		t.Fatalf("recovered %q, want [first]", got)
	}
	if st := w.Stats(); st.Truncated == 0 {
		t.Fatalf("corrupt tail not truncated: %+v", st)
	}
}

// TestWALHeaderCorruption: a mangled segment header is a hard error, not a
// silent empty recovery.
func TestWALHeaderCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.wal")
	walRoundTrip(t, path, SyncNone, [][]byte{[]byte("x")})
	b, _ := os.ReadFile(path)
	b[0] = 'X'
	os.WriteFile(path, b, 0o644)
	if _, err := OpenWAL(path, SyncNone, nil); err == nil {
		t.Fatal("corrupt header accepted")
	}
}
