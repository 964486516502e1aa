package main

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// ownCopy is the bench's own numbered copy of the document, built layer by
// layer through the public constructors; the unit probes run on it so they
// never touch the served document.
type ownCopy struct {
	tree *xmltree.Node
	num  *core.Numbering
	ix   *index.NameIndex
	doc  *document.Document // the whole facade, for the WAL replay probe
}

// buildLayers takes an open apart: it calls the constructor of each layer
// in the order document.OpenString does and times each one, then times
// OpenString whole. What OpenString costs beyond the parts is the epoch's
// clone and publication.
func (r *run) buildLayers() (*ownCopy, error) {
	own := &ownCopy{}
	var err error
	stage := func(name string, fn func()) {
		runtime.GC()
		t0 := time.Now()
		fn()
		r.set(name, time.Since(t0).Seconds())
	}
	stage("xmltree.parse_s", func() { own.tree, err = xmltree.ParseString(r.src) })
	if err != nil {
		return nil, err
	}
	// The partition the document facade defaults to (document.Options zero
	// value): area budget 64, §2.3 fan-out adjustment on.
	opts := core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 64, AdjustFanout: true}}
	stage("core.build_s", func() { own.num, err = core.Build(own.tree, opts) })
	if err != nil {
		return nil, err
	}
	stage("index.build_s", func() { own.ix = index.Build(own.num.Root(), own.num) })
	stage("dataguide.build_s", func() { dataguide.Build(own.tree) })
	stage("document.open_s", func() { own.doc, err = document.OpenString(r.src, document.Options{}) })
	if err != nil {
		return nil, err
	}
	r.set("index.bytes_per_posting", ratio(float64(own.ix.PostingsSizeBytes()), float64(own.ix.PostingsCount())))
	return own, nil
}

// unitProbes measures what one unit of each layer's work costs, on the
// bench's own copy: the rparent() arithmetic of Lemma 1, identifier to
// node resolution, postings decode, and the §3.2 area-confined update with
// the number of identifiers it changes.
func (r *run) unitProbes(own *ownCopy) {
	const passes = 5
	ids := own.ix.RuidIDs("text")
	perID := func(fn func(core.ID)) float64 {
		var best []float64
		for p := 0; p < passes; p++ {
			t0 := time.Now()
			for _, id := range ids {
				fn(id)
			}
			best = append(best, float64(time.Since(t0))/float64(len(ids)))
		}
		return median(best)
	}
	r.set("core.rparent_ns", perID(func(id core.ID) {
		if _, _, err := own.num.RParent(id); err != nil {
			r.fail("RParent(%v): %v", id, err)
		}
	}))
	r.set("core.resolve_ns_per_id", perID(func(id core.ID) {
		if _, ok := own.num.NodeOfID(id); !ok {
			r.fail("NodeOfID(%v) found nothing", id)
		}
	}))
	var decode []float64
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		n := len(own.ix.RuidIDs("text"))
		decode = append(decode, float64(time.Since(t0))/float64(n))
	}
	r.set("index.decode_ns_per_posting", median(decode))

	const updates = 200
	rng := rand.New(rand.NewSource(r.cfg.seed))
	auctions := own.tree.DocumentElement().FirstChildElement("open_auctions").ChildElements("open_auction")
	var ins, del []float64
	relabeled := 0
	for i := 0; i < updates; i++ {
		frag, err := xmltree.ParseString(fragment)
		if err != nil {
			r.fail("fragment: %v", err)
			return
		}
		child := frag.DocumentElement()
		child.Detach()
		parent := auctions[rng.Intn(len(auctions))]
		t0 := time.Now()
		st1, _, err1 := own.num.InsertChildDelta(parent, 1, child)
		t1 := time.Now()
		st2, _, err2 := own.num.DeleteChildDelta(parent, 1)
		t2 := time.Now()
		if err := errors.Join(err1, err2); err != nil {
			r.fail("update probe: %v", err)
			return
		}
		ins = append(ins, us(t1.Sub(t0)))
		del = append(del, us(t2.Sub(t1)))
		relabeled += st1.Relabeled + st2.Relabeled
	}
	r.set("core.insert_delta_us", median(ins))
	r.set("core.delete_delta_us", median(del))
	r.set("core.relabeled_per_write", float64(relabeled)/(2*updates))
}

// replayProbe times Document.ReplayWAL alone: it reads the records of the
// WAL file the durability check left, as Server.Open reads them, and
// replays them over the bench's own copy of the document.
func (r *run) replayProbe(own *ownCopy) error {
	path := filepath.Join(r.walDir, "replay-copy.wal")
	if err := os.WriteFile(path, r.walImage, 0o644); err != nil {
		return err
	}
	var records [][]byte
	wal, err := storage.OpenWAL(path, storage.SyncNone, func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		return err
	}
	if err := wal.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	applied, skipped, err := own.doc.ReplayWAL(records)
	r.set("document.replay_s", time.Since(t0).Seconds())
	if err != nil || applied != recoverInserts || skipped != 0 {
		r.fail("replay probe: %d applied, %d skipped, %v; want %d applied", applied, skipped, err, recoverInserts)
	}
	return nil
}

// obsOverhead compares read_point rounds on the observed server with the
// same rounds on a server whose Config.Observe is nil, alternating round
// by round so that both see the same host, and reports how much slower the
// observed one is.
func (r *run) obsOverhead() error {
	dir := filepath.Join(r.walDir, "unobserved")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	bare := newServer(dir, nil)
	defer bare.Close()
	observed, unobserved := r.h, bare.Handler()
	r.open(unobserved, r.baseNodes)

	const rounds = 400
	var with, without []float64
	for i := 0; i < rounds; i++ {
		h, into := observed, &with
		if i%2 == 1 {
			h, into = unobserved, &without
		}
		var lat time.Duration
		for _, q := range r.pointRound() {
			d, _ := r.readOn(h, q)
			lat += d
		}
		*into = append(*into, ms(lat))
	}
	r.set("obs.overhead_pct", 100*(median(with)-median(without))/median(without))
	return nil
}
