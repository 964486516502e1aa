package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/budget"
	"repro/internal/document"
	"repro/internal/obs"
)

// TestConcurrentTraffic is the server-level race exercise (run under
// -race in CI): queries and structural writes race across multiple
// catalog documents while
//
//   - snapshot isolation holds: a snapshot pinned before the writes keeps
//     answering with its original result count, however many epochs the
//     writers publish behind it;
//   - budget-exceeded queries racing unbudgeted ones return their sentinel
//     errors without corrupting the pooled executor scratch — the final
//     unbudgeted queries still produce exactly the expected results.
func TestConcurrentTraffic(t *testing.T) {
	s := New(Config{MaxInflight: 8, MaxQueue: 64, Observe: obs.NewRegistry()})
	docs := []string{"alpha", "beta", "gamma"}
	for _, name := range docs {
		if _, err := s.Open(name, xmarkSrc(2, 7)); err != nil {
			t.Fatal(err)
		}
	}
	const q = "/site//item/name"

	// Pin pre-write snapshots and their result counts.
	type snapshotPin struct {
		snap *document.Snapshot
		want int
	}
	baseline := make(map[string]int)
	snaps := map[string]*snapshotPin{}
	for _, name := range docs {
		d, err := s.catalog.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sn := d.Snapshot()
		nodes, _, err := sn.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		baseline[name] = len(nodes)
		snaps[name] = &snapshotPin{snap: sn, want: len(nodes)}
	}

	var wg sync.WaitGroup
	var inserts atomic.Int64
	var budgetTrips atomic.Int64

	// Writers: one per document, inserting items.
	for _, name := range docs {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				xml := fmt.Sprintf("<item><name>w-%s-%d</name></item>", name, i)
				if _, err := s.InsertReq(context.Background(), name, WriteRequest{Parent: "/site/regions", XML: xml, WaitVisible: true}); err != nil {
					t.Errorf("insert %s/%d: %v", name, i, err)
					return
				}
				inserts.Add(1)
			}
		}(name)
	}

	// Unbudgeted readers: results must always be internally consistent
	// (count from some published epoch, never less than baseline).
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := docs[g%len(docs)]
			for i := 0; i < 50; i++ {
				resp, err := s.Query(context.Background(), name, QueryRequest{Query: q})
				if err != nil {
					t.Errorf("reader %s: %v", name, err)
					return
				}
				if resp.Count < baseline[name] {
					t.Errorf("reader %s: count %d below pre-write baseline %d", name, resp.Count, baseline[name])
					return
				}
			}
		}(g)
	}

	// Budgeted readers: tiny budgets racing the full queries; every trip
	// must surface the matching sentinel.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := docs[g%len(docs)]
			for i := 0; i < 50; i++ {
				_, err := s.Query(context.Background(), name, QueryRequest{Query: q, MaxPostings: 1})
				if err == nil {
					t.Errorf("budget reader %s: tiny budget did not trip", name)
					return
				}
				if !errors.Is(err, budget.ErrPostingsBudget) {
					t.Errorf("budget reader %s: err = %v, want ErrPostingsBudget", name, err)
					return
				}
				budgetTrips.Add(1)
			}
		}(g)
	}

	// Pinned-snapshot readers: isolation across concurrent publications.
	for _, name := range docs {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			p := snaps[name]
			for i := 0; i < 50; i++ {
				nodes, _, err := p.snap.Query(q)
				if err != nil {
					t.Errorf("pinned %s: %v", name, err)
					return
				}
				if len(nodes) != p.want {
					t.Errorf("pinned %s: snapshot answered %d, want %d (isolation broken)", name, len(nodes), p.want)
					return
				}
			}
		}(name)
	}

	wg.Wait()

	// After the storm: pooled scratch must be clean — unbudgeted queries
	// return exactly baseline + inserts on the latest epoch.
	for _, name := range docs {
		resp, err := s.Query(context.Background(), name, QueryRequest{Query: q})
		if err != nil {
			t.Fatalf("final %s: %v", name, err)
		}
		want := baseline[name] + 20
		if resp.Count != want {
			t.Fatalf("final %s: count %d, want %d", name, resp.Count, want)
		}
	}
	if budgetTrips.Load() == 0 {
		t.Fatal("no budget trip observed")
	}
}
