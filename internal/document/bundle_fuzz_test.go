package document_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/document"
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
		d, err := document.OpenBundle(bytes.NewReader(b), document.Options{PoolPages: 8})
		if err != nil {
			return
		}
		if _, _, err := d.Query("//*"); err != nil {
			t.Fatalf("opened bundle cannot answer //*: %v", err)
		}
	})
}
