package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestCtxNilSafety(t *testing.T) {
	var rc *RequestCtx
	rc.Stamp("x")
	rc.SetBudget(3, 4)
	rc.AddQueueWait(time.Second)
	rc.SetError("boom")
	rc.Finish(200)
	if rc.ID() != 0 || rc.Kind() != "" || rc.Doc() != "" || rc.Duration() != 0 {
		t.Fatal("nil RequestCtx returned non-zero values")
	}
	if rc.Stages() != nil {
		t.Fatal("nil RequestCtx returned stages")
	}
	if s := rc.Summary(); s.ID != 0 {
		t.Fatalf("nil summary: %+v", s)
	}
	if got := RequestFrom(context.Background()); got != nil {
		t.Fatalf("RequestFrom(empty ctx) = %v, want nil", got)
	}
	if got := RequestFrom(nil); got != nil { //nolint:staticcheck // nil ctx is the contract under test
		t.Fatalf("RequestFrom(nil) = %v, want nil", got)
	}
	ctx := context.Background()
	if WithRequest(ctx, nil) != ctx {
		t.Fatal("WithRequest(ctx, nil) should return ctx unchanged")
	}
}

func TestRequestCtxPropagation(t *testing.T) {
	rc := NewRequest("query", "site")
	ctx := WithRequest(context.Background(), rc)
	if got := RequestFrom(ctx); got != rc {
		t.Fatalf("RequestFrom = %p, want %p", got, rc)
	}
	rc2 := NewRequest("insert", "site")
	if rc2.ID() == rc.ID() {
		t.Fatal("trace ids not unique")
	}
}

// TestRequestCtxStagesMonotone pins the acceptance-criterion contract: no
// matter which goroutines stamped in which order, the reported stage list
// is sorted by offset, i.e. timestamps are monotonically non-decreasing.
func TestRequestCtxStagesMonotone(t *testing.T) {
	rc := NewRequest("insert", "site")
	// Stamp from several goroutines to shuffle append order, as the
	// group-commit pipeline does (writer goroutine vs commit loop).
	var wg sync.WaitGroup
	for _, name := range []string{StageEnqueue, StageDequeue, StageBatched, StageWALAppend, StageFsyncDone, StageMerged, StagePublished, StageVisible} {
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			rc.Stamp(n)
		}(name)
	}
	wg.Wait()
	rc.Finish(200)
	st := rc.Summary().Stages
	if len(st) != 8 {
		t.Fatalf("stages = %d, want 8", len(st))
	}
	for i := 1; i < len(st); i++ {
		if st[i].OffsetUS < st[i-1].OffsetUS {
			t.Fatalf("stage %q at %dus before %q at %dus", st[i].Name, st[i].OffsetUS, st[i-1].Name, st[i-1].OffsetUS)
		}
	}
}

func TestRequestCtxSummary(t *testing.T) {
	rc := NewRequest("query", "docA")
	rc.Stamp("admitted")
	rc.SetBudget(1000, 42)
	rc.AddQueueWait(3 * time.Millisecond)
	rc.SetError("deadline")
	rc.Finish(504)
	s := rc.Summary()
	if s.Kind != "query" || s.Doc != "docA" || s.Status != 504 || s.Error != "deadline" {
		t.Fatalf("summary identity: %+v", s)
	}
	if s.Postings != 1000 || s.Results != 42 {
		t.Fatalf("summary counters: %+v", s)
	}
	if s.QueueUS < 3000 {
		t.Fatalf("queue_us = %d, want ≥ 3000", s.QueueUS)
	}
	d := rc.Duration()
	time.Sleep(2 * time.Millisecond)
	if rc.Duration() != d {
		t.Fatal("Finish did not freeze the duration")
	}
}

func TestFlightRecorderRings(t *testing.T) {
	f := NewFlightRecorder(4, 10*time.Millisecond)
	for i := 1; i <= 6; i++ {
		f.Record(RequestSummary{ID: uint64(i), Kind: "query", DurationUS: int64(i) * 100})
	}
	got := f.Requests()
	if len(got) != 4 {
		t.Fatalf("ring kept %d, want 4", len(got))
	}
	// Newest-first, oldest two overwritten.
	for i, want := range []uint64{6, 5, 4, 3} {
		if got[i].ID != want {
			t.Fatalf("ring[%d].ID = %d, want %d (got %+v)", i, got[i].ID, want, got)
		}
	}
	if len(f.Slow()) != 0 {
		t.Fatalf("slow log caught fast requests: %+v", f.Slow())
	}
	f.Record(RequestSummary{ID: 7, Kind: "insert", DurationUS: 50_000})
	slow := f.Slow()
	if len(slow) != 1 || slow[0].ID != 7 {
		t.Fatalf("slow log = %+v, want the 50ms request", slow)
	}
}

func TestFlightRecorderNilAndDump(t *testing.T) {
	var f *FlightRecorder
	f.Record(RequestSummary{ID: 1})
	f.RecordRequest(NewRequest("query", ""))
	if f.Requests() != nil || f.Slow() != nil || f.SlowThreshold() != 0 {
		t.Fatal("nil recorder returned data")
	}
	var sb strings.Builder
	f.Dump(&sb) // must not panic

	fr := NewFlightRecorder(0, 0) // defaults
	if fr.SlowThreshold() != DefaultSlowThreshold {
		t.Fatalf("default threshold = %v", fr.SlowThreshold())
	}
	rc := NewRequest("insert", "site")
	rc.Stamp("enqueue")
	rc.Stamp("visible")
	rc.Finish(200)
	fr.Record(rc.Summary())
	fr.Record(RequestSummary{ID: 99, Kind: "query", DurationUS: DefaultSlowThreshold.Microseconds() + 1, Error: "slow"})
	sb.Reset()
	fr.Dump(&sb)
	out := sb.String()
	for _, want := range []string{"slow request", "recent request", "insert", "enqueue", "visible", `err="slow"`} {
		if !strings.Contains(out, want) {
			t.Errorf("Dump missing %q in:\n%s", want, out)
		}
	}
}

// TestFlightRecorderConcurrent hammers Record and the snapshot readers
// together; under -race this is the lock-cheap ring's safety proof.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(8, time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record(RequestSummary{ID: uint64(seed*1000 + i), DurationUS: int64(i)})
				if i%64 == 0 {
					_ = f.Requests()
					_ = f.Slow()
				}
			}
		}(w)
	}
	wg.Wait()
	if len(f.Requests()) != 8 {
		t.Fatalf("ring size = %d, want 8", len(f.Requests()))
	}
}
