package document

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// ErrColdDocument reports a structural update against a document opened
// from a bundle, which serves reads only until a bundle carries its WAL
// position (see Document.readonly); reopen the bundle's XML through
// Open/FromTree to update it. Test with errors.Is.
var ErrColdDocument = errors.New("document: cold-opened document is read-only")

// bundleMagic identifies and versions the document bundle format: the
// serialized XML, the ruid numbering snapshot (core format ruidv001) and
// the postings snapshot (ruidpx01), each length-prefixed.
const bundleMagic = "ruidbd01"

// SaveBundle writes the current epoch as a self-contained bundle: XML
// text, numbering snapshot and postings snapshot. OpenBundle reopens it
// without re-partitioning the tree or rebuilding the index.
func (d *Document) SaveBundle(w io.Writer) error {
	snap := d.Snapshot()
	xml := xmltree.Serialize(snap.tree)
	var num bytes.Buffer
	if err := snap.num.Save(&num); err != nil {
		return err
	}
	px, err := storage.EncodePostings(snap.Index())
	if err != nil {
		return err
	}
	out := append(make([]byte, 0, len(xml)+num.Len()+len(px)+64), bundleMagic...)
	for _, section := range [][]byte{[]byte(xml), num.Bytes(), px} {
		out = binary.AppendUvarint(out, uint64(len(section)))
		out = append(out, section...)
	}
	_, err = w.Write(out)
	return err
}

// OpenBundle reopens a SaveBundle document: the XML is parsed, the
// numbering restored from its snapshot (no re-partitioning) and the
// postings loaded resident from theirs, every block and identifier
// validated (storage.LoadPostings), so a corrupt bundle is an error here
// and never a panic later. The document is read-only (ErrColdDocument).
func OpenBundle(r io.Reader, opts Options) (*Document, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(b) < len(bundleMagic) || string(b[:len(bundleMagic)]) != bundleMagic {
		return nil, fmt.Errorf("document: bad bundle magic")
	}
	b = b[len(bundleMagic):]
	sections := make([][]byte, 3)
	for i := range sections {
		n, m := binary.Uvarint(b)
		if m <= 0 || uint64(len(b)-m) < n {
			return nil, fmt.Errorf("document: truncated bundle section %d", i)
		}
		sections[i] = b[m : m+int(n)]
		b = b[m+int(n):]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("document: %d trailing bytes after bundle", len(b))
	}
	doc, err := xmltree.ParseString(string(sections[0]))
	if err != nil {
		return nil, err
	}
	if doc.DocumentElement() == nil {
		return nil, fmt.Errorf("document: bundle has no document element")
	}
	num, err := core.Load(doc, bytes.NewReader(sections[1]))
	if err != nil {
		return nil, err
	}
	ix, err := storage.LoadPostings(bytes.NewReader(sections[2]), num)
	if err != nil {
		return nil, err
	}
	d := &Document{
		opts:     opts.coreOptions(),
		exec:     exec.New(exec.Config{Observe: opts.Observe}),
		reg:      opts.Observe,
		dm:       newDocMetrics(opts.Observe),
		readonly: true,
		epoch:    1,
	}
	num.Seal()
	nodes, depths := detachTree(doc)
	snap := d.snapshotOf(doc, num, ix, dataguide.Build(doc), nodes, depths)
	snap.epoch = 1
	d.cur.Store(snap)
	return d, nil
}
