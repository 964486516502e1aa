// Package query implements a small cost-based planner over a numbered
// document: simple absolute location paths made of child/descendant steps
// with plain name tests compile to an identifier-only join pipeline
// (internal/index); everything else falls back to the axis-navigation
// engine (internal/xpath). The cost model uses the name-index counts the
// way a relational optimizer uses table cardinalities.
//
// This realizes the §4 "query evaluation" application end to end: a query
// arrives as text, the planner decides how much of it can run purely on
// identifiers, and only the final result set touches nodes.
package query

import (
	"fmt"
	"os"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// PlanKind distinguishes execution strategies.
type PlanKind int

// Plan kinds.
const (
	// NavPlan evaluates the full location path with the axis engine.
	NavPlan PlanKind = iota
	// JoinPlan evaluates a name-step chain as an identifier join pipeline.
	JoinPlan
	// TwigPlan evaluates a branching name-test pattern with the two-pass
	// twig matcher.
	TwigPlan
)

// String names the plan kind.
func (k PlanKind) String() string {
	switch k {
	case JoinPlan:
		return "join"
	case TwigPlan:
		return "twig"
	default:
		return "nav"
	}
}

// step is one stage of a join pipeline.
type step struct {
	name       string
	descendant bool // true: //name (UpwardSemiJoin); false: /name (ParentSemiJoin)
}

// Plan is a chosen execution strategy for one query.
type Plan struct {
	Kind    PlanKind
	Query   string
	Paths   []xpath.Path // parsed form (all kinds)
	chain   []step       // JoinPlan only
	pattern *twig.Node   // TwigPlan only
	NavCost float64      // estimated cost of navigation
	JoinCst float64      // estimated cost of the identifier plan (join or twig)
}

// Explain renders the plan decision for logs and tests: the chosen strategy
// with both cost estimates, and — when an identifier plan compiled but lost
// the cost comparison — the rejected alternative, so a plan choice is always
// auditable from its one-line rendering.
func (p Plan) Explain() string {
	switch p.Kind {
	case JoinPlan:
		return fmt.Sprintf("join pipeline (est %.0f vs nav %.0f): %v", p.JoinCst, p.NavCost, p.chain)
	case TwigPlan:
		return fmt.Sprintf("twig match (est %.0f vs nav %.0f): %s", p.JoinCst, p.NavCost, p.pattern)
	default:
		switch {
		case p.chain != nil:
			return fmt.Sprintf("navigation (est %.0f; rejected join pipeline est %.0f: %v)", p.NavCost, p.JoinCst, p.chain)
		case p.pattern != nil:
			return fmt.Sprintf("navigation (est %.0f; rejected twig match est %.0f: %s)", p.NavCost, p.JoinCst, p.pattern)
		default:
			return fmt.Sprintf("navigation (est %.0f; no identifier plan applies)", p.NavCost)
		}
	}
}

// Planner plans and executes queries over one numbered snapshot.
type Planner struct {
	doc    *xmltree.Node
	num    *core.Numbering
	ix     *index.NameIndex
	guide  *dataguide.Guide
	engine *xpath.Engine
	exec   *exec.Executor
	m      *plannerMetrics
	io     IOStatsFunc

	nodes     int
	meanDepth float64
}

// IOStatsFunc reports the cumulative page I/O of the store backing a paged
// snapshot: reads (pool misses), writes, hits, and evictions. The document
// facade wires it to the DocStore pager when PoolPages is set; with it, the
// per-stage EXPLAIN ANALYZE spans carry io_reads / io_hits / io_evictions
// deltas, witnessing which stages fault and which run I/O-free.
type IOStatsFunc func() (reads, writes, hits, evictions int64)

// SetIOStats attaches the paged store's I/O counters (nil detaches).
func (p *Planner) SetIOStats(f IOStatsFunc) { p.io = f }

// ioMark is a snapshot of the store counters taken before a stage.
type ioMark struct{ reads, writes, hits, evicts int64 }

func (p *Planner) ioSnap() ioMark {
	if p.io == nil {
		return ioMark{}
	}
	r, w, h, e := p.io()
	return ioMark{reads: r, writes: w, hits: h, evicts: e}
}

// ioRecord writes the I/O consumed since before onto sp.
func (p *Planner) ioRecord(sp *obs.Span, before ioMark) {
	if p.io == nil || sp == nil {
		return
	}
	after := p.ioSnap()
	sp.SetInt("io_reads", after.reads-before.reads)
	sp.SetInt("io_hits", after.hits-before.hits)
	sp.SetInt("io_evictions", after.evicts-before.evicts)
}

// plannerMetrics holds the registry pointers the planner records into,
// resolved once by SetObserver (nil when unobserved).
type plannerMetrics struct {
	queries     *obs.Counter
	planNav     *obs.Counter
	planJoin    *obs.Counter
	planTwig    *obs.Counter
	guidePruned *obs.Counter
	queryNS     *obs.Histogram
	results     *obs.Histogram
	resolved    *obs.Counter
	navVisited  *obs.Counter
}

// SetObserver points the planner's query metrics at r (nil detaches). The
// executor's own metrics are configured separately through exec.Config.
func (p *Planner) SetObserver(r *obs.Registry) {
	if r == nil {
		p.m = nil
		return
	}
	p.m = &plannerMetrics{
		queries:     r.Counter("query.count"),
		planNav:     r.Counter("query.plan_nav"),
		planJoin:    r.Counter("query.plan_join"),
		planTwig:    r.Counter("query.plan_twig"),
		guidePruned: r.Counter("query.guide_pruned"),
		queryNS:     r.Histogram("query.query_ns"),
		results:     r.Histogram("query.results"),
		resolved:    r.Counter("query.nodes_resolved"),
		navVisited:  r.Counter("query.nav_visited"),
	}
}

// New builds a planner over doc numbered by num, walking the tree for its
// cardinality statistics (depth counted on the way down).
func New(doc *xmltree.Node, num *core.Numbering) *Planner {
	root, depth := doc, 0
	if doc.Kind == xmltree.Document {
		root, depth = doc.DocumentElement(), 1
	}
	total, count := 0, 0
	var walk func(x *xmltree.Node, depth int)
	walk = func(x *xmltree.Node, depth int) {
		total += depth
		count++
		for i := 0; i < x.NumChildren(); i++ {
			walk(x.Child(i), depth+1)
		}
	}
	walk(root, depth)
	return NewWithState(doc, num, index.Build(root, num), dataguide.Build(doc), count, total)
}

// NewWithState builds a planner over doc from pre-assembled components —
// the incremental epoch-publication path of the document facade, which
// patches the previous epoch's index and guide and maintains the
// cardinality statistics itself instead of re-walking the document.
// nodes and depthTotal are the non-attribute node count of the tree below
// (and including) the root element and the sum of their depths.
func NewWithState(doc *xmltree.Node, num *core.Numbering, ix *index.NameIndex, guide *dataguide.Guide, nodes, depthTotal int) *Planner {
	p := &Planner{
		doc:    doc,
		num:    num,
		ix:     ix,
		guide:  guide,
		engine: xpath.NewEngine(doc, xpath.SchemeNavigator{S: num}),
		exec:   exec.Default(),
		nodes:  nodes,
	}
	if nodes > 0 {
		p.meanDepth = float64(depthTotal) / float64(nodes)
	}
	return p
}

// Index exposes the planner's name index (for statistics and tests).
func (p *Planner) Index() *index.NameIndex { return p.ix }

// SetExecutor replaces the executor scheduling the identifier pipelines —
// the facade routes its Parallel option here. A nil executor resets to the
// process-wide default.
func (p *Planner) SetExecutor(e *exec.Executor) {
	if e == nil {
		e = exec.Default()
	}
	p.exec = e
}

// Executor returns the executor scheduling the identifier pipelines.
func (p *Planner) Executor() *exec.Executor { return p.exec }

// Guide exposes the planner's DataGuide structural summary.
func (p *Planner) Guide() *dataguide.Guide { return p.guide }

// Plan parses the query and chooses a strategy.
func (p *Planner) Plan(q string) (Plan, error) {
	paths, err := xpath.ParseUnion(q)
	if err != nil {
		return Plan{}, err
	}
	plan := Plan{Kind: NavPlan, Query: q, Paths: paths, NavCost: p.navCost(paths)}
	if len(paths) != 1 {
		return plan, nil
	}
	chain, ok := compileChain(paths[0])
	if !ok {
		// A branching name-test pattern still beats navigation when the
		// involved name lists are small: try the twig compiler.
		if pattern, err := twig.CompilePath(paths[0]); err == nil {
			// Each pattern edge is one semi-join: child edges probe once
			// per candidate, descendant edges climb an ancestor chain that
			// stops at the first hit (about half the mean depth). The root
			// list itself is free.
			cost := 0.0
			var walk func(n *twig.Node, isRoot bool)
			walk = func(n *twig.Node, isRoot bool) {
				if !isRoot {
					per := 1.0
					if n.Edge == twig.Descendant {
						per = p.meanDepth / 2
					}
					cost += float64(p.ix.Count(n.Name)) * per
				}
				for _, c := range n.Children {
					walk(c, false)
				}
			}
			walk(pattern, true)
			plan.pattern = pattern
			plan.JoinCst = cost
			if cost < plan.NavCost {
				plan.Kind = TwigPlan
			}
		}
		return plan, nil
	}
	// Join pipeline cost: each stage climbs (descendant step) or probes
	// (child step) once per surviving candidate; surviving cardinality is
	// bounded by the stage's own name count.
	cost := 0.0
	for i, st := range chain {
		card := float64(p.ix.Count(st.name))
		if i == 0 {
			continue // the first list is free (already materialized)
		}
		perCandidate := 1.0
		if st.descendant {
			perCandidate = p.meanDepth
		}
		cost += card * perCandidate
	}
	plan.chain = chain
	plan.JoinCst = cost
	if cost < plan.NavCost {
		plan.Kind = JoinPlan
	}
	return plan, nil
}

// navCost estimates axis-navigation cost: absolute descendant queries scan
// the document once per '//' step in the worst case.
func (p *Planner) navCost(paths []xpath.Path) float64 {
	cost := 0.0
	for _, path := range paths {
		steps := 1
		for _, s := range path.Steps {
			if s.Axis == xpath.AxisDescendant || s.Axis == xpath.AxisDescendantOrSelf {
				steps++
			}
		}
		cost += float64(p.nodes) * float64(steps)
	}
	return cost
}

// compileChain recognizes absolute paths of the form
// /a/b//c/… (child and descendant steps, plain name tests, no predicates)
// and compiles them to a join chain. It returns ok=false otherwise.
func compileChain(path xpath.Path) ([]step, bool) {
	if !path.Absolute || len(path.Steps) == 0 {
		return nil, false
	}
	var chain []step
	pendingDescendant := false
	for _, s := range path.Steps {
		if len(s.Predicates) > 0 {
			return nil, false
		}
		if s.Axis == xpath.AxisDescendantOrSelf && s.Test.Kind == xpath.TestNode {
			pendingDescendant = true // the '//' abbreviation
			continue
		}
		if s.Axis != xpath.AxisChild || s.Test.Kind != xpath.TestName || s.Test.Name == "*" {
			return nil, false
		}
		chain = append(chain, step{name: s.Test.Name, descendant: pendingDescendant})
		pendingDescendant = false
	}
	if pendingDescendant || len(chain) == 0 {
		return nil, false
	}
	// The first step must anchor at the document root: /a means "a is the
	// root element", //a means "a anywhere" — both are fine as the initial
	// list, but a root-anchored /a must filter to the root element, which
	// the executor handles.
	return chain, true
}

// Result is the answer of one executed query. An identifier plan's answer
// stays a set of identifiers: Len counts them without touching a node, and
// Nodes is the one place they become nodes. A navigation plan walks the tree
// and so hands over its nodes ready-made. A Result is for one goroutine; the
// zero Result is the empty answer.
type Result struct {
	n     int
	nodes []*xmltree.Node // nil until resolved; a navigation plan's from the start

	// The unresolved answer of an identifier plan: a Postings view over rn
	// (still block-compressed for a seed-only chain).
	rn  *core.Numbering
	ids index.Postings

	resolved *obs.Counter // query.nodes_resolved; nil when unobserved
}

// Len returns the size of the answer. No identifier is decoded or resolved
// for it: a count-only caller never pays for nodes.
func (r *Result) Len() int { return r.n }

// unresolved reports whether Nodes still has identifiers to resolve.
func (r *Result) unresolved() bool { return r.nodes == nil && r.n > 0 }

// Nodes returns the answer's nodes in document order, resolving the
// identifiers on the first call and keeping the nodes for later ones. An
// identifier the numbering cannot resolve means the index and the numbering
// disagree: that is an error naming the identifier, never a shorter answer,
// so a success has exactly Len nodes.
func (r *Result) Nodes() ([]*xmltree.Node, error) {
	if r.unresolved() {
		nodes, err := r.resolve()
		if err != nil {
			return nil, err
		}
		r.nodes = nodes
		r.resolved.Add(uint64(len(nodes)))
	}
	return r.nodes, nil
}

// resolve maps the identifiers to nodes. Decoding a paged seed list can
// fault; the failure is an error here as it is inside RunMetered.
func (r *Result) resolve() (nodes []*xmltree.Node, err error) {
	defer recoverPaged(&err)
	nodes = make([]*xmltree.Node, 0, r.n)
	for _, id := range r.ids.Materialize() {
		n, ok := r.rn.NodeOfID(id)
		if !ok {
			return nil, fmt.Errorf("query: index holds %v, which the numbering resolves to no node", id)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// recoverPaged turns a paged-postings fault into an ordinary error. Paged
// postings fault inside decode sites that cannot return errors; a fault
// failure (I/O error, torn page) panics with *index.PagedError, re-raised by
// the executor from parallel workers. Anything else keeps panicking.
func recoverPaged(err *error) {
	if r := recover(); r != nil {
		pe, ok := r.(*index.PagedError)
		if !ok {
			panic(r)
		}
		*err = pe
	}
}

// debugChecks makes every query resolve its answer and hold it to Len, so a
// count-only request cannot hide an index the numbering disagrees with.
// Seeded from RUID_DEBUG like the index and pager checks.
var debugChecks = os.Getenv("RUID_DEBUG") != ""

// Run plans and executes the query, returning the result node-set in
// document order together with the plan used.
func (p *Planner) Run(q string) ([]*xmltree.Node, Plan, error) {
	res, plan, err := p.RunMetered(q, nil, nil)
	if err != nil {
		return nil, plan, err
	}
	nodes, err := res.Nodes()
	return nodes, plan, err
}

// RunMetered is the general form of Run; both arguments are nil-safe. It
// returns the answer unresolved: a caller that only counts reads Len, one
// that needs nodes calls Nodes.
//
// tr records per-stage execution spans — the EXPLAIN ANALYZE building
// block. A nil trace is the untraced fast path: no span, note, or attribute
// is materialized. A traced run resolves the answer under a resolve span, so
// the report prices that stage whether or not the caller goes on to call
// Nodes. The trace is finished (plan recorded, total frozen) before
// returning, ready to Render.
//
// m is the request's resource meter (budget.NewMeter over the caller's
// context and limits): identifier pipelines charge postings scanned and
// result rows materialized against it as they execute, and a query that
// exceeds any bound terminates early inside the join kernels, returning
// the matching sentinel (budget.ErrPostingsBudget, budget.ErrResultBudget,
// or the context's own error) with an empty Result. The caller inspects the
// meter afterwards for consumption. A nil meter runs unbudgeted.
func (p *Planner) RunMetered(q string, tr *obs.Trace, m *budget.Meter) (res Result, plan Plan, err error) {
	var start time.Time
	if p.m != nil {
		start = time.Now()
	}
	res, plan, err = p.execute(q, tr, m)
	if err == nil && tr != nil && res.unresolved() {
		sp := tr.StartSpan("resolve")
		var nodes []*xmltree.Node
		nodes, err = res.Nodes()
		sp.SetInt("ids", int64(res.n))
		sp.SetInt("out", int64(len(nodes)))
		sp.End()
	}
	if err == nil && debugChecks {
		err = res.check()
	}
	if err != nil {
		tr.Notef("error: %v", err)
		tr.Finish()
		return Result{}, plan, err
	}
	tr.SetPlan(plan.Kind.String(), plan.Explain())
	tr.Finish()
	if p.m != nil {
		p.m.queries.Inc()
		switch plan.Kind {
		case JoinPlan:
			p.m.planJoin.Inc()
		case TwigPlan:
			p.m.planTwig.Inc()
		default:
			p.m.planNav.Inc()
		}
		p.m.queryNS.Observe(time.Since(start).Nanoseconds())
		p.m.results.Observe(int64(res.n))
	}
	return res, plan, nil
}

// check is the RUID_DEBUG assertion: the answer resolves, to exactly Len
// nodes. It resolves a copy, so it neither counts as the caller's resolve
// nor saves the caller one.
func (r *Result) check() error {
	nodes := r.nodes
	if r.unresolved() {
		var err error
		if nodes, err = r.resolve(); err != nil {
			return err
		}
	}
	if len(nodes) != r.n {
		panic(fmt.Sprintf("query: answer of %d identifiers resolved to %d nodes", r.n, len(nodes)))
	}
	return nil
}

// execute plans q and runs the chosen plan up to, and not including, the
// resolve of an identifier answer.
func (p *Planner) execute(q string, tr *obs.Trace, m *budget.Meter) (res Result, plan Plan, err error) {
	defer recoverPaged(&err)
	sp := tr.StartSpan("plan")
	plan, err = p.Plan(q)
	sp.End()
	if err != nil {
		return Result{}, Plan{}, err
	}
	if plan.Kind == NavPlan {
		// The axis engine samples the meter every thousand-odd candidates its
		// walks visit, so a navigation plan honours its deadline inside the
		// walk like a join does inside a block; its result rows are charged
		// once the walk is done.
		if !m.Check() {
			return Result{}, plan, m.Err()
		}
		sp := tr.StartSpan("navigate")
		nodes, visited, ok := p.engine.EvalMetered(plan.Paths, m.Check)
		sp.SetInt("visited", int64(visited))
		sp.SetInt("out", int64(len(nodes)))
		sp.End()
		if p.m != nil {
			p.m.navVisited.Add(uint64(visited))
		}
		if !ok || !m.ChargeResults(len(nodes)) {
			return Result{}, plan, m.Err()
		}
		return Result{n: len(nodes), nodes: nodes}, plan, nil
	}
	// DataGuide pruning: a name chain absent from every label path cannot
	// match; refuse it before running any join (§6 [4]: the guide lets
	// "users perform meaningful and valid queries").
	if !p.guide.HasChain(plan.spineNames()...) {
		if p.m != nil {
			p.m.guidePruned.Inc()
		}
		tr.Notef("dataguide: chain %v unsatisfiable, pruned without execution", plan.spineNames())
		return Result{}, plan, nil
	}
	var resolved *obs.Counter
	if p.m != nil {
		resolved = p.m.resolved
	}
	// The whole pipeline (twig or join chain) runs on concrete identifiers,
	// never boxing a single probe, and its answer resolves through the
	// concrete lookup.
	mex := p.exec.WithMeter(m)
	qio := p.ioSnap()
	var ids index.Postings
	if plan.Kind == TwigPlan {
		var sp *obs.Span
		ex := mex
		if tr != nil {
			sp = tr.StartSpan("twig_match " + plan.pattern.String())
			ex = ex.WithSpan(sp)
		}
		before := p.ioSnap()
		matched, _ := twig.MatchIDsWith(plan.pattern, p.ix, ex)
		ids = index.SlicePostings(matched)
		sp.SetInt("out", int64(ids.Len()))
		p.ioRecord(sp, before)
		sp.End()
	} else {
		ids = p.runChain(plan.chain, tr, mex)
	}
	if p.io != nil && tr != nil {
		now := p.ioSnap()
		tr.Notef("io: reads=%d hits=%d evictions=%d", now.reads-qio.reads, now.hits-qio.hits, now.evicts-qio.evicts)
	}
	// A tripped meter means the pipeline stopped mid-kernel and ids is a
	// partial (possibly empty) set: discard it and surface the sentinel.
	if err := m.Err(); err != nil {
		tr.Notef("budget: %v", err)
		return Result{}, plan, err
	}
	// Charge the final identifier set too: a seed-only chain (single
	// step) reaches here without passing any join kernel, and this keeps
	// MaxResults a bound on what can reach the resolver regardless of
	// plan shape.
	if !m.ChargeResults(ids.Len()) {
		tr.Notef("budget: %v", m.Err())
		return Result{}, plan, m.Err()
	}
	return Result{n: ids.Len(), rn: p.num, ids: ids, resolved: resolved}, plan, nil
}

// runChain executes a join pipeline entirely on concrete ruid identifiers.
// The first step's postings stay in their block-compressed view; every
// descendant side of the pipeline is likewise consumed as a Postings view, so
// only candidate blocks are ever decoded, and the answer is returned as a
// view too: a seed-only chain's is the index's own list, undecoded. With a
// live trace, every pipeline stage gets its own span carrying input/output
// cardinalities, and the stage's executor operation records its shard layout
// and block statistics into that span; the tr == nil checks keep the
// untraced path free of the span-name allocations. Every intermediate goes
// back to the executor (exec.ReleaseIDs) once the step reading it returns;
// the answer, which the Result keeps, does not.
func (p *Planner) runChain(chain []step, tr *obs.Trace, base *exec.Executor) index.Postings {
	first := chain[0]
	cur := p.ix.Postings(first.name)
	if !first.descendant {
		// Root-anchored /name: only the document root element qualifies.
		root := p.doc
		if root.Kind == xmltree.Document {
			root = root.DocumentElement()
		}
		var anchored []core.ID
		if root != nil && root.Name == first.name {
			if id, ok := p.num.RUID(root); ok {
				anchored = []core.ID{id}
			}
		}
		cur = index.SlicePostings(anchored)
	}
	if tr != nil {
		pre := "/"
		if first.descendant {
			pre = "//"
		}
		sp := tr.StartSpan("seed " + pre + first.name)
		sp.SetInt("out", int64(cur.Len()))
		sp.End()
	}
	var prev []core.ID // the executor result cur views, if any
	for _, st := range chain[1:] {
		if cur.Len() == 0 {
			tr.Notef("pipeline short-circuit: empty intermediate result before %s", st.name)
			exec.ReleaseIDs(prev)
			return index.Postings{}
		}
		descs := p.ix.Postings(st.name)
		ex := base
		var sp *obs.Span
		if tr != nil {
			op, pre := "upward_semi_join", "//"
			if !st.descendant {
				op, pre = "parent_semi_join", "/"
			}
			sp = tr.StartSpan(pre + st.name + " " + op)
			sp.SetInt("ancs", int64(cur.Len()))
			sp.SetInt("descs", int64(descs.Len()))
			ex = ex.WithSpan(sp)
		}
		before := p.ioSnap()
		var next []core.ID
		if st.descendant {
			next = ex.UpwardSemiJoin(p.num, cur, descs)
		} else {
			next = ex.ParentSemiJoin(p.num, cur, descs)
		}
		exec.ReleaseIDs(prev)
		sp.SetInt("out", int64(len(next)))
		p.ioRecord(sp, before)
		sp.End()
		cur, prev = index.SlicePostings(next), next
	}
	return cur
}

// spineNames returns the name chain along the plan's output path, used for
// DataGuide satisfiability pruning (conservative: descendant gaps allowed).
func (p Plan) spineNames() []string {
	var names []string
	if p.Kind == JoinPlan {
		for _, st := range p.chain {
			names = append(names, st.name)
		}
		return names
	}
	for n := p.pattern; n != nil; {
		names = append(names, n.Name)
		var next *twig.Node
		for _, c := range n.Children {
			if c.Output || hasOutput(c) {
				next = c
			}
		}
		n = next
	}
	return names
}

func hasOutput(n *twig.Node) bool {
	if n.Output {
		return true
	}
	for _, c := range n.Children {
		if hasOutput(c) {
			return true
		}
	}
	return false
}
