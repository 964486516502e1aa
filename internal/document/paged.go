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
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Out-of-core mode. With Options.PoolPages > 0 the document's postings
// block bytes live in storage.Pager pages behind one buffer pool (a
// storage.BlockStore) and are faulted on demand; table K, the skip tables,
// the DataGuide and the tree stay memory-resident, which is exactly the
// split Lemma 1 needs — axis navigation computes on K and identifiers and
// touches no page, an answer resolves to the resident tree, and block
// decodes page honestly. SaveBundle/OpenBundle persist a document and reopen
// it cold: the reopened engine materializes no postings bytes, so the first
// queries fault in only the blocks their skip tables admit.

// ErrColdDocument reports a structural update against a cold-opened
// document, which serves reads only until a bundle carries its WAL position
// (see Document.readonly); reopen the bundle through Open/FromTree to update
// it. Test with errors.Is.
var ErrColdDocument = errors.New("document: cold-opened document is read-only")

// wireIOStats points the planner's per-stage I/O attribution at the
// document's store, when paged.
func (d *Document) wireIOStats(p *query.Planner) {
	if d.store == nil {
		return
	}
	pg := d.store.Pager()
	p.SetIOStats(func() (reads, hits, evictions int64) {
		st := pg.Stats()
		return st.Reads, st.CacheHits, st.Evictions
	})
}

// pageOutSnapshot converts a freshly assembled resident snapshot to its
// paged form under a brand-new BlockStore: every posting list's delta bytes
// become a pager blob behind a paged list (skip tables stay resident). Runs
// before the snapshot is published; on error the caller keeps the resident
// snapshot unpublished. Callers hold d.mu.
func (d *Document) pageOutSnapshot(snap *Snapshot) error {
	store := storage.NewBlockStore(d.poolPages)
	store.Pager().SetObserver(d.reg)
	ix := snap.Index()
	names := ix.Names()
	lists := make(map[string]*index.PostingList, len(names))
	for _, name := range names {
		pl := ix.Postings(name).List()
		if pl == nil {
			return fmt.Errorf("document: page-out: %q has no block posting list", name)
		}
		data, err := pl.DataBytes()
		if err != nil {
			return err
		}
		blob := storage.PostingsBlobPrefix + name
		if err := store.PutBlob(blob, data); err != nil {
			return err
		}
		ppl, err := index.PagedPostingList(pl.Skips(), pl.Len(), len(data), store.Source(blob))
		if err != nil {
			return fmt.Errorf("document: page-out %q: %w", name, err)
		}
		lists[name] = ppl
	}
	pix, err := index.FromPostingLists(snap.num, lists)
	if err != nil {
		return err
	}
	store.Pager().Flush()
	d.store = store
	*snap = *d.snapshotOf(snap.tree, snap.num, pix, snap.Guide(), snap.nodes, snap.depths)
	return nil
}

// Store exposes the out-of-core backing store (nil unless the document was
// opened with PoolPages or OpenBundle): the postings blobs of the latest
// full publication, which the paged lists of every epoch since read.
func (d *Document) Store() *storage.BlockStore { return d.store }

// IOStats returns the paged store's cumulative I/O counters (zero when the
// document is not paged).
func (d *Document) IOStats() storage.IOStats {
	if d.store == nil {
		return storage.IOStats{}
	}
	return d.store.Pager().Stats()
}

// ResetIOStats zeroes the paged store's I/O counters (no-op when not
// paged), for before/after measurements.
func (d *Document) ResetIOStats() {
	if d.store != nil {
		d.store.Pager().ResetStats()
	}
}

// DropCaches empties the paged store's buffer pool (no-op when not paged),
// so subsequent queries run cold.
func (d *Document) DropCaches() {
	if d.store != nil {
		d.store.Pager().DropCache()
	}
}

// bundleMagic identifies and versions the document bundle format: the
// serialized XML, the ruid numbering snapshot (core format ruidv001) and
// the postings snapshot (ruidpx01), each length-prefixed.
const bundleMagic = "ruidbd01"

// SaveBundle writes the current epoch as a self-contained bundle: XML
// text, numbering snapshot and postings snapshot. OpenBundle reopens it
// cold — without rebuilding the index or materializing postings bytes (the
// cold open leans on Lemma 1's resident table K).
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

// OpenBundle reopens a SaveBundle document cold: the XML is parsed and the
// numbering restored from its snapshot (no re-partitioning), but the
// postings load paged — block bytes go straight into BlockStore pages and
// only the skip tables become resident. The buffer pool is then dropped, so
// the first queries fault from a cold cache and EXPLAIN ANALYZE shows exactly
// which stages page. The document is read-only (ErrColdDocument); PoolPages
// defaults to 256 frames when unset.
func OpenBundle(r io.Reader, opts Options) (*Document, error) {
	pool := opts.PoolPages
	if pool <= 0 {
		pool = 256
	}
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
	store := storage.NewBlockStore(pool)
	store.Pager().SetObserver(opts.Observe)
	ix, err := storage.LoadPostingsPaged(bytes.NewReader(sections[2]), num, store)
	if err != nil {
		return nil, err
	}
	d := &Document{
		opts:      opts.coreOptions(),
		exec:      exec.New(exec.Config{Mode: opts.Parallel, Workers: opts.ExecWorkers, Observe: opts.Observe}),
		reg:       opts.Observe,
		dm:        newDocMetrics(opts.Observe),
		poolPages: pool,
		store:     store,
		readonly:  true,
		epoch:     1,
	}
	num.Seal()
	nodes, depths := detachTree(doc)
	snap := d.snapshotOf(doc, num, ix, dataguide.Build(doc), nodes, depths)
	snap.epoch = 1
	d.cur.Store(snap)
	// Start cold: loading dirtied the pool; everything is on "disk" now and
	// the first faults count from zero.
	pg := store.Pager()
	pg.Flush()
	pg.DropCache()
	pg.ResetStats()
	return d, nil
}
