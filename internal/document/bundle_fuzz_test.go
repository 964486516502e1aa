package document_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/storage"
)

// smallBundle is the SaveBundle of a small document.
func smallBundle(t testing.TB) []byte {
	t.Helper()
	d, err := document.OpenString(`<a><b x="1"><c>t</c></b><b/><d><c/></d></a>`, document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveBundle(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withPostings returns bundle with its postings section (the third) replaced
// by px.
func withPostings(t testing.TB, bundle, px []byte) []byte {
	t.Helper()
	const magic = len("ruidbd01")
	out := append([]byte(nil), bundle[:magic]...)
	b := bundle[magic:]
	for i := 0; i < 2; i++ {
		n, m := binary.Uvarint(b)
		if m <= 0 {
			t.Fatal("malformed bundle")
		}
		out = append(out, b[:m+int(n)]...)
		b = b[m+int(n):]
	}
	out = binary.AppendUvarint(out, uint64(len(px)))
	return append(out, px...)
}

// hugeCounts are postings sections whose counts declare far more than the
// bytes that follow: 2^30 names, and one name of 2^40 blocks.
func hugeCounts() [][]byte {
	names := binary.AppendUvarint([]byte("ruidpx01"), 1<<30)
	blocks := binary.AppendUvarint([]byte("ruidpx01"), 1)
	blocks = binary.AppendUvarint(blocks, 1)
	blocks = append(blocks, 'a')
	blocks = binary.AppendUvarint(blocks, 1<<40) // postings
	blocks = binary.AppendUvarint(blocks, 1<<40) // blocks
	return [][]byte{names, blocks}
}

// TestOpenBundleRejectsHugeCounts: a postings section that declares more
// names or blocks than it has bytes for is an error, found before anything
// is sized from the count.
func TestOpenBundleRejectsHugeCounts(t *testing.T) {
	bundle := smallBundle(t)
	for i, px := range hugeCounts() {
		if _, err := document.OpenBundle(bytes.NewReader(withPostings(t, bundle, px)), document.Options{}); err == nil {
			t.Errorf("input %d: a %d-byte postings section declaring huge counts opened", i, len(px))
		}
	}
}

// TestOpenBundleRejectsCorruptPostings: validation happens when a bundle
// opens. A block whose delta bytes do not decode, and a key whose parent
// chain does not reach the root (which comparing it in document order
// presumes), are errors from OpenBundle, not panics of a later query.
func TestOpenBundleRejectsCorruptPostings(t *testing.T) {
	d, err := document.OpenString(`<a><b/><b/></a>`, document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveBundle(&buf); err != nil {
		t.Fatal(err)
	}
	bundle := buf.Bytes()
	px, err := storage.EncodePostings(d.Snapshot().Index())
	if err != nil {
		t.Fatal(err)
	}
	// The section is the magic, the name count, then a's entry — name length,
	// name, posting count, block count — and its one block's header: First
	// and Last keys, MinGlobal, MaxGlobal. b's delta bytes end it.
	first := len("ruidpx01") + 1 + 1 + len("a") + 1 + 1
	if !bytes.Equal(px[first:first+core.KeyBytes], core.RootID.Key()) {
		t.Fatalf("fixture: a's block does not start with the root at byte %d", first)
	}
	torn := bytes.Clone(px)
	torn[len(torn)-1] |= 0x80 // b's last varint now runs off the end
	orphan := bytes.Clone(px)
	stray := core.ID{Global: 100, Local: 5} // area 100 has no K row
	copy(orphan[first:], stray.Key())
	copy(orphan[first+core.KeyBytes:], stray.Key())
	orphan[first+2*core.KeyBytes], orphan[first+2*core.KeyBytes+1] = 100, 100
	for name, c := range map[string]struct {
		px   []byte
		want string
	}{
		"torn delta bytes": {torn, "does not decode"},
		"orphan key":       {orphan, "does not reach the root"},
	} {
		_, err := document.OpenBundle(bytes.NewReader(withPostings(t, bundle, c.px)), document.Options{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: OpenBundle err %v, want %q", name, err, c.want)
		}
	}
}

// FuzzOpenBundle: any input either fails to open or opens into a document
// that answers //* — never a panic.
func FuzzOpenBundle(f *testing.F) {
	bundle := smallBundle(f)
	f.Add(bundle)
	for cut := 0; cut < len(bundle); cut += len(bundle)/16 + 1 {
		f.Add(bundle[:cut])
	}
	for _, px := range hugeCounts() {
		f.Add(withPostings(f, bundle, px))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := document.OpenBundle(bytes.NewReader(b), document.Options{})
		if err != nil {
			return
		}
		if _, _, err := d.Query("//*"); err != nil {
			t.Fatalf("opened bundle cannot answer //*: %v", err)
		}
	})
}
