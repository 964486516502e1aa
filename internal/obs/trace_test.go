package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTrace(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan("x")
	if sp != nil {
		t.Fatal("nil trace produced a span")
	}
	// Every span method must no-op on nil.
	sp.SetInt("a", 1)
	sp.AddBlocks(1, 2, 3, 4)
	sp.End()
	if sp.Ended() || sp.Name() != "" || sp.Duration() != 0 {
		t.Fatal("nil span not inert")
	}
	tr.SetPlan("join", "detail")
	tr.Notef("note %d", 1)
	tr.Finish()
	var sb strings.Builder
	tr.Render(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil trace rendered %q", sb.String())
	}
}

func TestTraceSpansAndRender(t *testing.T) {
	tr := NewTrace("//a//b")
	tr.SetPlan("join", "join pipeline (est 10 vs nav 100)")
	sp := tr.StartSpan("//b upward_semi_join")
	sp.SetInt("ancs", 100)
	sp.SetInt("descs", 900)
	sp.SetInt("out", 42)
	sp.SetInt("out", 43) // upsert, not append
	sp.AddBlocks(12, 52, 64, 0)
	sp.End()
	sp.End() // idempotent
	tr.Notef("short-circuit after step %d", 2)
	tr.Finish()

	if !sp.Ended() {
		t.Fatal("span not ended")
	}
	if v, ok := sp.Int("out"); !ok || v != 43 {
		t.Fatalf("out attr = %d, %v", v, ok)
	}
	adm, skip, probes, admitAll := sp.Blocks()
	if adm != 12 || skip != 52 || probes != 64 || admitAll != 0 {
		t.Fatalf("blocks = %d %d %d %d", adm, skip, probes, admitAll)
	}

	var sb strings.Builder
	tr.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"trace //a//b", "plan=join", "join pipeline (est 10 vs nav 100)",
		"upward_semi_join", "ancs=100", "descs=900", "out=43",
		"admitted=12", "skipped=52", "probes=64",
		"note: short-circuit after step 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestTraceConcurrentBlockCounters: block statistics added from several
// goroutines at once stay exact, under -race.
func TestTraceConcurrentBlockCounters(t *testing.T) {
	tr := NewTrace("q")
	sp := tr.StartSpan("stage")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				sp.AddBlocks(1, 1, 2, 0)
			}
		}()
	}
	wg.Wait()
	sp.End()
	adm, skip, probes, _ := sp.Blocks()
	if adm != 8000 || skip != 8000 || probes != 16000 {
		t.Fatalf("blocks = %d %d %d", adm, skip, probes)
	}
}

func TestTraceDuration(t *testing.T) {
	tr := NewTrace("q")
	sp := tr.StartSpan("s")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Finish()
	if sp.Duration() <= 0 {
		t.Fatalf("span duration %v", sp.Duration())
	}
	if tr.Duration() < sp.Duration() {
		t.Fatalf("trace %v shorter than span %v", tr.Duration(), sp.Duration())
	}
}
