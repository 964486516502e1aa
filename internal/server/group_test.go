package server

import (
	"context"
	"fmt"
	"testing"
	"time"
)

const groupSrc = `<site><regions><r1/><r2/></regions><people/></site>`

func groupServer(t *testing.T, walDir string) *Server {
	t.Helper()
	return New(Config{
		GroupCommit: GroupCommitConfig{
			Enabled:  true,
			MaxBatch: 8,
			MaxDelay: time.Millisecond,
			WALDir:   walDir,
		},
	})
}

// TestServerGroupCommitWrites: the HTTP-facing write path batches through
// the group committer; WaitVisible acks at publication, and every write is
// eventually queryable.
func TestServerGroupCommitWrites(t *testing.T) {
	s := groupServer(t, "") // no WAL: pure batching
	if _, err := s.Open("site", groupSrc); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	const n = 20
	for i := 0; i < n; i++ {
		req := WriteRequest{
			Parent:      "/site/people",
			Pos:         0,
			XML:         fmt.Sprintf("<person id=\"p%d\"/>", i),
			WaitVisible: i == n-1, // last write syncs the pipeline
		}
		if _, err := s.InsertReq(ctx, "site", req); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// The last write waited for visibility, but earlier batch members may
	// publish after it enqueued; settle the pipeline with one more synced
	// no-op round trip.
	if _, err := s.DeleteReq(ctx, "site", WriteRequest{Parent: "/site/regions", WaitVisible: true}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Query(ctx, "site", QueryRequest{Query: "//person"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != n {
		t.Fatalf("queried %d persons, want %d", resp.Count, n)
	}
}

// TestServerWALRecovery: a server restart over the same WALDir replays
// every acknowledged mutation when the document is reopened from its base
// image — the crash-recovery contract the CI smoke job exercises end to
// end with a SIGKILL.
func TestServerWALRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1 := groupServer(t, dir)
	if _, err := s1.Open("site", groupSrc); err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		req := WriteRequest{Parent: "/site/people", Pos: 0, XML: fmt.Sprintf("<person id=\"q%d\"/>", i)}
		if _, err := s1.InsertReq(ctx, "site", req); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Every InsertReq above returned ⇒ every record is durable. Simulate the
	// crash by abandoning s1 without closing its documents: the WAL file
	// stays as the crashed process left it.
	s2 := groupServer(t, dir)
	if _, err := s2.Open("site", groupSrc); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs := s2.Recoveries()
	if len(recs) != 1 || recs[0].Doc != "site" {
		t.Fatalf("recoveries = %+v", recs)
	}
	if recs[0].Records != n || recs[0].Applied != n || recs[0].Skipped != 0 {
		t.Fatalf("recovery replayed %+v, want %d/%d/0", recs[0], n, n)
	}
	resp, err := s2.Query(ctx, "site", QueryRequest{Query: "//person"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != n {
		t.Fatalf("recovered %d persons, want %d", resp.Count, n)
	}

	// The recovered document keeps accepting (and logging) writes.
	if _, err := s2.InsertReq(ctx, "site", WriteRequest{
		Parent: "/site/people", Pos: 0, XML: "<person id=\"post\"/>", WaitVisible: true,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err = s2.Query(ctx, "site", QueryRequest{Query: "//person"})
	if err != nil || resp.Count != n+1 {
		t.Fatalf("post-recovery write: count %d err %v", resp.Count, err)
	}
}
