package main

import "time"

// The benchmark's constants. BENCHMARK.json (whose schema admits no extra
// keys) names the workloads and metrics; everything that sizes a run lives
// here, so a run is a pure function of (-workload, -seed, -seconds).
const (
	docName = "bench" // catalog name of the document every workload serves

	// defaultScale is the XMark scale of the served document: ~190k nodes,
	// ~3.3 MB serialised. Chosen so the cold opens of set-up fit in ~7 s and
	// leave the run's time for measuring; see README.md ("Sizing"). Bounds,
	// pacing and AGREEMENT.md hold for this scale only, so it is not a flag.
	defaultScale = 500

	// segments splits the measured section into equal time slices. Slice 0
	// warms caches, lazy rank maps and the GC's heap target and is
	// discarded; a run's value for a timing metric is the median over the
	// remaining slices.
	segments = 6

	setupOpens = 5  // cold PUTs, each on a fresh server; setup_s is their median
	refAround  = 16 // reference samples on each side of an open; setup_s is scaled by their medians

	// pointPool is how many distinct positional queries each read_point
	// template draws from. Queries repeat within a run, as the lookups of a
	// real client do, so a plan cache would show here.
	pointPool = 64

	// mixedPairsPerSec is the open-loop rate of mixed_rw's writer, in
	// insert+delete pairs. It sits well below what a lone writer sustains
	// (about 130 pairs/s at defaultScale on a quiet host), so the offered write load
	// is constant and the reader's numbers move only with interference.
	mixedPairsPerSec = 40

	burstSize      = 32  // write_area burst: this many inserts, then as many deletes
	heapBursts     = 16  // bursts write_area runs before its heap_mb is taken
	recoverInserts = 100 // mutations the durability check leaves in the WAL

	// ladderEvery is the sampling stride of the traced run's ladder: every
	// n-th request is replayed down the public entry points.
	ladderEvery = 4

	// tracedShare is the part of -seconds each of the traced run's two
	// stretches (plain, laddered) lasts: one fifth, as the issue sizes it.
	tracedShare = 0.2

	walSync = "group" // what `ruidd -wal DIR` defaults to

	// fragment is the subtree every write inserts: a bidder with one
	// increase, three nodes, inside one UID-local area (§3.2).
	fragment      = "<bidder><increase>1.50</increase></bidder>"
	fragmentNodes = 3

	maxQueryTimeout = 30 * time.Second // ruidd's -max-timeout default
)

var workloadNames = []string{"read_join", "read_point", "write_area", "mixed_rw"}

// chainStep is one step of a join pipeline, as the planner compiles it:
// //name (descendant) or /name (child).
type chainStep struct {
	name       string
	descendant bool
}

// joinSpec is one set-at-a-time query of read_join and mixed_rw. chain is
// the bench's own statement of the pipeline the planner runs for a join
// plan, replayed kernel by kernel on the traced ladder; its result count is
// checked against the oracle, so a drifting replica fails the run.
type joinSpec struct {
	query string
	plan  string // "join" or "twig"
	chain []chainStep
	// grows marks the query whose count rises by one while mixed_rw's
	// writer has an insert in place.
	grows bool
}

var joinSpecs = []joinSpec{
	{query: "/site//item/name", plan: "join",
		chain: []chainStep{{"site", false}, {"item", true}, {"name", false}}},
	{query: "//listitem//text", plan: "join",
		chain: []chainStep{{"listitem", true}, {"text", true}}},
	{query: "//open_auction[bidder]/itemref", plan: "twig"},
	{query: "/site/people/person[profile]/name", plan: "twig"},
	{query: "//bidder/increase", plan: "join", grows: true,
		chain: []chainStep{{"bidder", true}, {"increase", false}}},
}

// endToEndUnits and perLayerUnits name every metric the benchmark emits,
// with its unit. bench_test.go holds them equal to BENCHMARK.json.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"ops_s":           "1/s",
	"p50_ms":          "ms",
	"p90_ms":          "ms",
	"alloc_kb_per_op": "KB",
	"heap_mb":         "MB",

	"wal_bytes_per_write": "B",
}

var perLayerUnits = map[string]string{
	"xmltree.parse_s": "s",

	"core.build_s":             "s",
	"core.rparent_ns":          "ns",
	"core.resolve_ns_per_id":   "ns",
	"core.insert_delta_us":     "us",
	"core.delete_delta_us":     "us",
	"core.relabeled_per_write": "count",

	"index.build_s":                      "s",
	"index.decode_ns_per_posting":        "ns",
	"index.join_us":                      "us",
	"index.postings_per_result":          "ratio",
	"index.blocks_skipped_ratio":         "ratio",
	"index.bytes_per_posting":            "B",
	"index.reencoded_per_write":          "count",
	"twig.match_us":                      "us",
	"exec.ops_per_query":                 "count",
	"exec.shards_per_op":                 "count",
	"exec.pool_miss_ratio":               "ratio",
	"xpath.parse_us":                     "us",
	"xpath.eval_us":                      "us",
	"query.plan_us":                      "us",
	"dataguide.build_s":                  "s",
	"document.open_s":                    "s",
	"document.query_join_us":             "us",
	"document.query_point_us":            "us",
	"document.merge_us":                  "us",
	"document.publish_us":                "us",
	"document.batch_size_mean":           "count",
	"document.publish_incremental_ratio": "ratio",
	"document.recover_s":                 "s",
	"document.replay_s":                  "s",

	"storage.wal_append_us":       "us",
	"storage.wal_fsync_us":        "us",
	"storage.fsyncs_per_write":    "count",
	"storage.wal_bytes_per_write": "B",

	"server.query_us":       "us",
	"server.http_self_us":   "us",
	"server.admit_self_us":  "us",
	"server.write_queue_us": "us",

	"obs.overhead_pct": "%",

	"client.read_p99_ms":          "ms",
	"client.write_visible_p50_ms": "ms",
	"client.write_visible_p90_ms": "ms",
	"client.write_p99_ms":         "ms",
	"client.writer_late_p90_ms":   "ms",
	"client.gc_cycles":            "count",
	"client.gc_pause_ms":          "ms",
	"client.cpu_ms_per_op":        "ms",
	"client.ref_slowdown":         "ratio",
	"client.ladder_residual_pct":  "%",
	"client.trace_overhead_pct":   "%",
}
