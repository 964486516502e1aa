// Package query implements a small cost-based planner over a numbered
// document: absolute location paths made of child/descendant steps with
// plain name tests, and predicates of the same shape, compile to an
// identifier-only pipeline (internal/twig); everything else falls back to
// the axis-navigation engine (internal/xpath). The cost model uses the
// name-index counts the way a relational optimizer uses table
// cardinalities.
//
// This realizes the §4 "query evaluation" application end to end: a query
// arrives as text, the planner decides how much of it can run purely on
// identifiers, and only the final result set touches nodes.
package query

import (
	"errors"
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
	// JoinPlan evaluates a name-step chain (a pattern without branches) as
	// an identifier join pipeline.
	JoinPlan
	// TwigPlan evaluates a branching name-test pattern through the same
	// pipeline.
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

// Plan is a chosen execution strategy for one query.
type Plan struct {
	Kind    PlanKind
	Query   string
	Paths   []xpath.Path // parsed form (all kinds)
	pattern *twig.Node   // the compiled pattern, when the query has one
	spine   []string     // the names along its main path
	idKind  PlanKind     // the pattern's plan: JoinPlan or TwigPlan
	NavCost float64      // estimated cost of navigation
	JoinCst float64      // estimated cost of the identifier plan (join or twig)
}

// Explain renders the plan decision for logs and tests: the chosen strategy
// with both cost estimates, and — when an identifier plan compiled but lost
// the cost comparison — the rejected alternative, so a plan choice is always
// auditable from its one-line rendering.
func (p Plan) Explain() string {
	if p.pattern == nil {
		return fmt.Sprintf("navigation (est %.0f; no identifier plan applies)", p.NavCost)
	}
	what := "twig match"
	if p.idKind == JoinPlan {
		what = "join pipeline"
	}
	if p.Kind == NavPlan {
		return fmt.Sprintf("navigation (est %.0f; rejected %s est %.0f: %s)", p.NavCost, what, p.JoinCst, p.pattern)
	}
	return fmt.Sprintf("%s (est %.0f vs nav %.0f): %s", what, p.JoinCst, p.NavCost, p.pattern)
}

// Planner plans and executes queries over one numbered snapshot.
type Planner struct {
	num    *core.Numbering
	ix     *index.NameIndex
	guide  *dataguide.Guide
	engine *xpath.Engine
	exec   *exec.Executor
	m      *plannerMetrics

	nodes     int
	meanDepth float64
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
	idsKept     *obs.Counter
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
		idsKept:     r.Counter("query.ids_kept"),
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

// SetExecutor replaces the executor running the identifier pipelines — the
// facade routes its observed executor here. A nil executor resets to the
// process-wide default.
func (p *Planner) SetExecutor(e *exec.Executor) {
	if e == nil {
		e = exec.Default()
	}
	p.exec = e
}

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
	pattern, err := twig.CompilePath(paths[0])
	if err != nil {
		return plan, nil
	}
	plan.pattern, plan.spine = pattern, pattern.SpineNames()
	plan.JoinCst, plan.idKind = p.estimate(pattern, len(plan.spine))
	if plan.JoinCst < plan.NavCost {
		plan.Kind = plan.idKind
	}
	return plan, nil
}

// estimate prices the identifier plan of a pattern and names its kind. Each
// non-root pattern node is one semi-join whose probes scale with the node's
// name count: one probe per candidate on a child edge, and on a descendant
// edge a climb that stops at the first hit, about half the mean depth. The
// root's list is free. A pattern whose every node is on the spine is a join
// chain; any other is a twig.
func (p *Planner) estimate(pattern *twig.Node, spineLen int) (cost float64, kind PlanKind) {
	nodes := 0
	var walk func(n *twig.Node)
	walk = func(n *twig.Node) {
		nodes++
		for _, c := range n.Children {
			per := 1.0
			if c.Edge == twig.Descendant {
				per = p.meanDepth / 2
			}
			cost += float64(p.ix.Count(c.Name)) * per
			walk(c)
		}
	}
	walk(pattern)
	if nodes == spineLen {
		return cost, JoinPlan
	}
	return cost, TwigPlan
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

// Result is the answer of one executed query. An identifier plan's answer
// stays a set of identifiers: Len counts them without touching a node, and
// Nodes is the one place they become nodes. A navigation plan walks the tree
// and so hands over its nodes ready-made. A counted answer — a run whose
// caller said it would not resolve — holds its size and nothing else. A
// Result is for one goroutine; the zero Result is the empty answer.
type Result struct {
	n       int
	counted bool
	nodes   []*xmltree.Node // nil until resolved; a navigation plan's from the start

	// The unresolved answer of an identifier plan: a Postings view over rn
	// (still block-compressed for a seed-only chain).
	rn  *core.Numbering
	ids index.Postings

	resolved *obs.Counter // query.nodes_resolved; nil when unobserved
}

// ErrCounted is what Nodes returns for a counted answer: the run was asked
// for a size, so it kept no identifier to resolve.
var ErrCounted = errors.New("query: the answer was counted, not kept; run the query with resolve to read its nodes")

// Len returns the size of the answer. No identifier is decoded or resolved
// for it: a count-only caller never pays for nodes.
func (r *Result) Len() int { return r.n }

// unresolved reports whether Nodes still has identifiers to resolve.
func (r *Result) unresolved() bool { return !r.counted && r.nodes == nil && r.n > 0 }

// Nodes returns the answer's nodes in document order, resolving the
// identifiers on the first call and keeping the nodes for later ones. An
// identifier the numbering cannot resolve means the index and the numbering
// disagree: that is an error naming the identifier, never a shorter answer,
// so a success has exactly Len nodes. A counted answer has no nodes to give:
// Nodes returns ErrCounted, never an empty slice.
func (r *Result) Nodes() ([]*xmltree.Node, error) {
	if r.counted {
		return nil, ErrCounted
	}
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

// resolve maps the identifiers to nodes.
func (r *Result) resolve() ([]*xmltree.Node, error) {
	nodes := make([]*xmltree.Node, 0, r.n)
	for _, id := range r.ids.Materialize() {
		n, ok := r.rn.NodeOfID(id)
		if !ok {
			return nil, fmt.Errorf("query: index holds %v, which the numbering resolves to no node", id)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// debugChecks makes every query resolve its answer and hold it to Len, so a
// count-only request cannot hide an index the numbering disagrees with; a
// counted answer is first written out and held to its count (check).
// Seeded from RUID_DEBUG like the index checks.
var debugChecks = os.Getenv("RUID_DEBUG") != ""

// Run plans and executes the query, returning the result node-set in
// document order together with the plan used.
func (p *Planner) Run(q string) ([]*xmltree.Node, Plan, error) {
	res, plan, err := p.RunMetered(q, nil, nil, true)
	if err != nil {
		return nil, plan, err
	}
	nodes, err := res.Nodes()
	return nodes, plan, err
}

// RunMetered is the general form of Run; tr and m are nil-safe. It returns
// the answer unresolved: a caller that only counts reads Len, one that needs
// nodes calls Nodes.
//
// resolve says whether the caller will call Nodes. A caller that will not —
// the server's count-only request — passes false, and an identifier plan
// then runs in count shape (twig.Match): no identifier of the answer is
// written or kept, and Nodes returns ErrCounted. Budget charges are the
// same in either shape.
//
// tr records per-stage execution spans — the EXPLAIN ANALYZE building
// block. A nil trace is the untraced fast path: no span, note, or attribute
// is materialized. A traced run keeps and resolves the answer under a
// resolve span whatever resolve says, so the report prices that stage
// whether or not the caller goes on to call Nodes. The trace is finished
// (plan recorded, total frozen) before returning, ready to Render.
//
// m is the request's resource meter (budget.NewMeter over the caller's
// context and limits): identifier pipelines charge postings scanned and
// result rows materialized against it as they execute, and a query that
// exceeds any bound terminates early inside the join kernels, returning
// the matching sentinel (budget.ErrPostingsBudget, budget.ErrResultBudget,
// or the context's own error) with an empty Result. The caller inspects the
// meter afterwards for consumption. A nil meter runs unbudgeted.
func (p *Planner) RunMetered(q string, tr *obs.Trace, m *budget.Meter, resolve bool) (res Result, plan Plan, err error) {
	var start time.Time
	if p.m != nil {
		start = time.Now()
	}
	res, plan, err = p.execute(q, tr, m, !resolve && tr == nil)
	if err == nil && tr != nil && res.unresolved() {
		sp := tr.StartSpan("resolve")
		var nodes []*xmltree.Node
		nodes, err = res.Nodes()
		sp.SetInt("ids", int64(res.n))
		sp.SetInt("out", int64(len(nodes)))
		sp.End()
	}
	if err == nil && debugChecks {
		err = p.check(res, plan)
	}
	if err != nil {
		tr.Notef("error: %v", err)
		tr.Finish()
		return Result{}, plan, err
	}
	if tr != nil {
		tr.SetPlan(plan.Kind.String(), plan.Explain())
	}
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
		p.m.idsKept.Add(uint64(len(res.ids.Slice())))
	}
	return res, plan, nil
}

// check is the RUID_DEBUG assertion: the answer resolves, to exactly Len
// nodes. It resolves a copy, so it neither counts as the caller's resolve
// nor saves the caller one. A counted identifier answer has nothing to
// resolve: the query runs again written out, unmetered, and that answer must
// hold exactly the counted number of identifiers before it is resolved in
// turn. A counted walk's count is the length of what it walked to.
func (p *Planner) check(r Result, plan Plan) error {
	if r.counted {
		if plan.Kind == NavPlan {
			return nil
		}
		ids, n, _ := twig.Match(plan.pattern, p.ix, p.exec, nil, false)
		if n != r.n {
			panic(fmt.Sprintf("query: %q counted %d identifiers, written out %d", plan.Query, r.n, n))
		}
		r = Result{n: n, rn: p.num, ids: ids}
	}
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
// resolve of an identifier answer. A counted run keeps no answer.
func (p *Planner) execute(q string, tr *obs.Trace, m *budget.Meter, counted bool) (Result, Plan, error) {
	sp := tr.StartSpan("plan")
	plan, err := p.Plan(q)
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
		if counted {
			return Result{n: len(nodes), counted: true}, plan, nil
		}
		return Result{n: len(nodes), nodes: nodes}, plan, nil
	}
	// DataGuide pruning: a spine whose name chain is absent from every label
	// path cannot match; refuse it before running any join (§6 [4]: the
	// guide lets "users perform meaningful and valid queries").
	if !p.guide.HasChain(plan.spine...) {
		if p.m != nil {
			p.m.guidePruned.Inc()
		}
		tr.Notef("dataguide: chain %v unsatisfiable, pruned without execution", plan.spine)
		return Result{counted: counted}, plan, nil
	}
	var resolved *obs.Counter
	if p.m != nil {
		resolved = p.m.resolved
	}
	// The whole pipeline runs on concrete identifiers, never boxing a single
	// probe, and its answer — the index's own list for a seed-only chain —
	// resolves through the concrete lookup.
	ids, n, _ := twig.Match(plan.pattern, p.ix, p.exec.WithMeter(m), tr, counted)
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
	if !m.ChargeResults(n) {
		tr.Notef("budget: %v", m.Err())
		return Result{}, plan, m.Err()
	}
	if counted {
		return Result{n: n, counted: true}, plan, nil
	}
	return Result{n: n, rn: p.num, ids: ids, resolved: resolved}, plan, nil
}
