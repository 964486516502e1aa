package document

import (
	"runtime"
	"strings"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
)

// docMetrics holds the registry pointers the facade records into, resolved
// once at Open (nil when the document is unobserved).
type docMetrics struct {
	// Gauges describing the current epoch.
	epoch         *obs.Gauge
	nodes         *obs.Gauge
	areas         *obs.Gauge
	names         *obs.Gauge
	postingsBytes *obs.Gauge
	// epochsLive counts published snapshots not yet collected — the
	// structural-sharing pressure gauge. Decremented by a finalizer when a
	// superseded epoch's snapshot becomes unreachable.
	epochsLive *obs.Gauge

	publishFull *obs.Counter
	publishIncr *obs.Counter
	publishNS   *obs.Histogram

	// ApplyDelta scope: how much of the index updates re-encode versus
	// share (the paper's update-scope claim, measured per publication), by
	// name and, inside the touched names, by block.
	namesTouched  *obs.Counter
	namesShared   *obs.Counter
	postingsReenc *obs.Counter
	blocksReenc   *obs.Counter
	blocksShared  *obs.Counter
}

func newDocMetrics(r *obs.Registry) *docMetrics {
	if r == nil {
		return nil
	}
	return &docMetrics{
		epoch:         r.Gauge("doc.epoch"),
		nodes:         r.Gauge("doc.nodes"),
		areas:         r.Gauge("doc.areas"),
		names:         r.Gauge("doc.names"),
		postingsBytes: r.Gauge("doc.postings_bytes"),
		epochsLive:    r.Gauge("doc.epochs_live"),
		publishFull:   r.Counter("doc.publish_full"),
		publishIncr:   r.Counter("doc.publish_incremental"),
		publishNS:     r.Histogram("doc.publish_ns"),
		namesTouched:  r.Counter("index.delta_names_touched"),
		namesShared:   r.Counter("index.delta_names_shared"),
		postingsReenc: r.Counter("index.delta_postings_reencoded"),
		blocksReenc:   r.Counter("index.delta_blocks_reencoded"),
		blocksShared:  r.Counter("index.delta_blocks_shared"),
	}
}

// noteEpochLocked refreshes the epoch gauges and publication counters after
// a successful publication. Callers hold d.mu.
func (d *Document) noteEpochLocked(full bool, st index.DeltaStats, dur time.Duration) {
	if d.dm == nil {
		return
	}
	s := d.cur.Load()
	d.dm.epoch.Set(int64(s.epoch))
	d.dm.nodes.Set(int64(s.nodes))
	d.dm.areas.Set(int64(s.num.AreaCount()))
	d.dm.names.Set(int64(s.Index().NameCount()))
	d.dm.postingsBytes.Set(int64(s.Index().PostingsSizeBytes()))
	if full {
		d.dm.publishFull.Inc()
	} else {
		d.dm.publishIncr.Inc()
		d.dm.namesTouched.Add(uint64(st.NamesTouched))
		d.dm.namesShared.Add(uint64(st.NamesShared))
		d.dm.postingsReenc.Add(uint64(st.PostingsReencoded))
		d.dm.blocksReenc.Add(uint64(st.BlocksReencoded))
		d.dm.blocksShared.Add(uint64(st.BlocksShared))
	}
	d.dm.publishNS.Observe(dur.Nanoseconds())
	d.dm.epochsLive.Add(1)
	live := d.dm.epochsLive
	runtime.SetFinalizer(s, func(*Snapshot) { live.Add(-1) })
}

// Registry returns the observability registry the document was opened with,
// nil when unobserved. Useful for wiring obs.Serve or dumping xq -stats.
func (d *Document) Registry() *obs.Registry { return d.reg }

// ExplainAnalyze executes q against the current epoch under a fresh trace
// and returns the rendered report: the plan decision with both cost
// estimates, one line per execution stage with cardinalities and timings,
// and the seek kernels' blocks admitted versus skipped.
func (d *Document) ExplainAnalyze(q string) (string, error) {
	tr := obs.NewTrace(q)
	if _, _, err := d.Snapshot().QueryMetered(q, tr, nil, true); err != nil {
		return "", err
	}
	var sb strings.Builder
	tr.Render(&sb)
	return sb.String(), nil
}
