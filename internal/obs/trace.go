package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace records one query's execution for the EXPLAIN ANALYZE renderer:
// the plan decision and an ordered list of per-stage spans, each carrying
// wall time, cardinality attributes and the block-skip statistics of the
// seek kernels.
//
// A nil *Trace is the disabled tracer: every method no-ops and StartSpan
// returns a nil *Span whose methods no-op too, so instrumented code traces
// unconditionally and pays one nil check when tracing is off. A Trace is
// meant for one query on one goroutine.
type Trace struct {
	query  string
	plan   string
	detail string
	start  time.Time
	total  time.Duration

	mu    sync.Mutex
	spans []*Span
	notes []string
}

// NewTrace starts a trace for one query.
func NewTrace(query string) *Trace {
	return &Trace{query: query, start: time.Now()}
}

// SetPlan records the planner's decision: the plan kind and its Explain
// rendering.
func (t *Trace) SetPlan(kind, detail string) {
	if t == nil {
		return
	}
	t.plan, t.detail = kind, detail
}

// Notef appends a free-form annotation (pruning decisions, short-circuits).
func (t *Trace) Notef(format string, args ...any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// StartSpan opens a new stage span. Close it with End.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{name: name, begin: time.Now()}
	sp.offset = sp.begin.Sub(t.start)
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Finish freezes the trace's total duration.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.total = time.Since(t.start)
}

// Duration returns the frozen total (or the running time before Finish).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	if t.total != 0 {
		return t.total
	}
	return time.Since(t.start)
}

// Spans returns the recorded spans in start order.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// Notes returns the recorded annotations.
func (t *Trace) Notes() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.notes...)
}

// Span is one execution stage of a trace, recorded by the query's
// goroutine. All methods are nil-safe and safe for concurrent use.
type Span struct {
	name   string
	begin  time.Time
	offset time.Duration
	dur    time.Duration
	ended  bool

	// Block-skip statistics.
	blocksAdmitted atomic.Int64
	blocksSkipped  atomic.Int64
	skipProbes     atomic.Int64
	admitAlls      atomic.Int64

	mu    sync.Mutex
	attrs []Attr
}

// Attr is one rendered span attribute.
type Attr struct {
	Key string
	Val int64
}

// Name returns the span's stage name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// End closes the span, freezing its duration. Idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.begin)
}

// Ended reports whether End ran — the tracer's "no abandoned spans"
// invariant checked by the panic-propagation tests.
func (s *Span) Ended() bool {
	return s != nil && s.ended
}

// Duration returns the frozen span duration (0 before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// SetInt upserts an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
}

// Int returns an integer attribute's value.
func (s *Span) Int(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// Attrs returns the attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// AddBlocks accumulates seek-kernel block statistics: blocks decoded
// (admitted), blocks galloped over (skipped), skip-test probes, and
// admit-all fallbacks.
func (s *Span) AddBlocks(admitted, skipped, probes, admitAlls int64) {
	if s == nil {
		return
	}
	s.blocksAdmitted.Add(admitted)
	s.blocksSkipped.Add(skipped)
	s.skipProbes.Add(probes)
	s.admitAlls.Add(admitAlls)
}

// Blocks returns the accumulated block statistics.
func (s *Span) Blocks() (admitted, skipped, probes, admitAlls int64) {
	if s == nil {
		return
	}
	return s.blocksAdmitted.Load(), s.blocksSkipped.Load(), s.skipProbes.Load(), s.admitAlls.Load()
}

// Render writes the EXPLAIN ANALYZE view of the trace: the plan decision,
// then one line (plus a block detail line) per stage.
func (t *Trace) Render(w io.Writer) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "trace %s  plan=%s  total=%s\n", t.query, t.plan, fmtDur(t.Duration()))
	if t.detail != "" {
		fmt.Fprintf(w, "  %s\n", t.detail)
	}
	for i, sp := range t.Spans() {
		sp.render(w, i+1)
	}
	for _, n := range t.Notes() {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func (s *Span) render(w io.Writer, idx int) {
	var b strings.Builder
	fmt.Fprintf(&b, "  [%d] %-34s %8s", idx, s.name, fmtDur(s.dur))
	for _, a := range s.Attrs() {
		fmt.Fprintf(&b, " %s=%d", a.Key, a.Val)
	}
	fmt.Fprintln(w, b.String())
	adm, skip, probes, admitAll := s.Blocks()
	if adm != 0 || skip != 0 || probes != 0 || admitAll != 0 {
		line := fmt.Sprintf("        blocks: admitted=%d skipped=%d probes=%d", adm, skip, probes)
		if admitAll > 0 {
			line += fmt.Sprintf(" admit-all=%d", admitAll)
		}
		fmt.Fprintln(w, line)
	}
}

// fmtDur renders a duration at microsecond granularity.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
