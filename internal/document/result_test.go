package document_test

import (
	"math"
	"os"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// TestCountedQueryKeepsNoAnswer: a count-only query writes none of its
// answer down. Once the executor's pools are warm, /site//item/name on
// XMark 20 allocates less than an eighth of what its answer would take as
// identifiers — what every count-only query allocated while the last
// semi-join wrote the answer out only for Len to read its length.
func TestCountedQueryKeepsNoAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pools at random")
	}
	if os.Getenv("RUID_DEBUG") != "" {
		t.Skip("under RUID_DEBUG a counted answer is written out to be checked")
	}
	d, err := document.FromTree(xmltree.XMark(20, 1), document.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	const q, runs = "/site//item/name", 100
	res, plan, err := snap.QueryMetered(q, nil, nil, false)
	if err != nil || plan.Kind != query.JoinPlan || res.Len() == 0 {
		t.Fatalf("fixture: %q answered %d by a %s plan, err %v", q, res.Len(), plan.Kind, err)
	}
	// The least of five rounds: a round that a collection (which empties the
	// executor's pools) or another test's goroutine lands in reads high.
	perQuery := math.Inf(1)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			snap.QueryMetered(q, nil, nil, false)
		}
		runtime.ReadMemStats(&after)
		perQuery = min(perQuery, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	answer := float64(res.Len()) * float64(unsafe.Sizeof(core.ID{}))
	if perQuery >= answer/8 {
		t.Fatalf("a counted %q allocates %.0f B, an eighth of its %d-identifier answer is %.0f B", q, perQuery, res.Len(), answer/8)
	}
	t.Logf("a counted %q allocates %.0f B; its answer would take %.0f B", q, perQuery, answer)
}
