package xpath

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/xmltree"
)

// Engine evaluates location paths over one document snapshot. It holds no
// per-node table and no mutable state, so construction is O(1) and one
// engine (one published epoch's planner) serves any number of concurrent
// readers; what a single evaluation needs lives in its run.
type Engine struct {
	doc *xmltree.Node
	nav Navigator
}

// NewEngine returns an engine over doc (its Document node) using nav for
// the positional axes and for document order.
func NewEngine(doc *xmltree.Node, nav Navigator) *Engine {
	return &Engine{doc: doc, nav: nav}
}

// Navigator returns the engine's navigator.
func (e *Engine) Navigator() Navigator { return e.nav }

// stopStride is how many visited candidates pass between two samples of a
// run's stop test: often enough that a deadline is honoured within
// microseconds, seldom enough that the test costs the walk nothing.
const stopStride = 1024

// run is the state of one evaluation: the candidates its axis walks have
// visited so far, and the caller's stop test with its verdict.
type run struct {
	*Engine
	alive   func() bool // sampled every stopStride candidates; nil never stops
	visited int
	stopped bool
}

// tick counts one visited candidate and reports whether the walk goes on.
func (r *run) tick() bool {
	r.visited++
	if r.visited%stopStride == 0 && r.alive != nil && !r.alive() {
		r.stopped = true
	}
	return !r.stopped
}

// Select evaluates a location path with the given context node (ignored
// for absolute paths) and returns the result node-set in document order.
func (e *Engine) Select(ctx *xmltree.Node, path Path) []*xmltree.Node {
	r := run{Engine: e}
	return r.selectPath(ctx, path)
}

// Query parses and evaluates src — a location path or a '|' union of
// location paths — against the document root.
func (e *Engine) Query(src string) ([]*xmltree.Node, error) {
	paths, err := ParseUnion(src)
	if err != nil {
		return nil, err
	}
	return e.Eval(paths), nil
}

// Eval evaluates an already parsed query — one location path, or the
// members of a union — against the document root.
func (e *Engine) Eval(paths []Path) []*xmltree.Node {
	nodes, _, _ := e.EvalMetered(paths, nil)
	return nodes
}

// EvalMetered is Eval with the walk accounted for and stoppable: alive (nil
// never stops) is sampled every stopStride candidates, and once it reports
// false every axis walk in progress unwinds. It returns how many candidates
// the axis walks visited and whether the evaluation ran to its end; a
// stopped one returns no nodes.
func (e *Engine) EvalMetered(paths []Path, alive func() bool) (nodes []*xmltree.Node, visited int, ok bool) {
	r := run{Engine: e, alive: alive}
	nodes = r.selectUnion(e.doc, paths)
	if r.stopped {
		return nil, r.visited, false
	}
	return nodes, r.visited, true
}

// selectUnion evaluates the members of a union against the same context and
// returns their deduplicated union in document order.
func (r *run) selectUnion(ctx *xmltree.Node, paths []Path) []*xmltree.Node {
	if len(paths) == 1 {
		return r.selectPath(ctx, paths[0])
	}
	var out []*xmltree.Node
	for _, p := range paths {
		out = append(out, r.selectPath(ctx, p)...)
	}
	return r.nav.InOrder(r.doc, out)
}

func (r *run) selectPath(ctx *xmltree.Node, path Path) []*xmltree.Node {
	set := []*xmltree.Node{ctx}
	if path.Absolute {
		set[0] = r.doc
	}
	for _, step := range path.Steps {
		if set = r.evalStep(set, step); len(set) == 0 {
			return nil
		}
	}
	return set
}

// stepScan is the visitor of one location step: it applies the node test to
// each candidate an axis walk hands it and keeps the survivors — all of
// them, or, when the step's first predicate is a bare number k, the k-th
// only, stopping the walk there.
type stepScan struct {
	r    *run
	test NodeTest
	axis Axis
	k    int // 0: keep every survivor
	seen int // survivors of the current context so far
	out  []*xmltree.Node
}

func (s *stepScan) visit(n *xmltree.Node) bool {
	if !s.r.tick() {
		return false
	}
	if !matches(n, s.test, s.axis) {
		return true
	}
	if s.seen++; s.seen < s.k {
		return true
	}
	s.out = append(s.out, n)
	return s.k == 0
}

// position returns the index a bare-number predicate selects, or 0 when it
// selects nothing (zero, negative, fractional).
func position(k NumberLit) int {
	if i := int(k); float64(i) == float64(k) && i >= 1 {
		return i
	}
	return 0
}

// evalStep applies one location step to a node-set in document order.
func (r *run) evalStep(ctx []*xmltree.Node, step Step) []*xmltree.Node {
	s := &stepScan{r: r, test: step.Test, axis: step.Axis}
	visit := Visit(s.visit)
	preds := step.Predicates
	walk := true
	if len(preds) > 0 {
		if lead, ok := preds[0].(NumberLit); ok {
			// t[k]: count to k during the walk instead of collecting t; a k
			// that selects nothing (0, 2.5) needs no walk.
			s.k, preds = position(lead), preds[1:]
			walk = s.k > 0
		}
	}
	for _, c := range ctx {
		from := len(s.out)
		s.seen = 0
		if walk {
			r.axis(c, step.Axis, visit)
		}
		if r.stopped {
			return nil
		}
		// The survivors of the node test are the "initial node-set" of the
		// spec; the predicates filter it in turn, each with fresh positions
		// in axis order.
		seg := s.out[from:]
		for _, pred := range preds {
			seg = r.filter(seg, pred)
		}
		if reverseAxis(step.Axis) {
			slices.Reverse(seg)
		}
		s.out = s.out[:from+len(seg)]
	}
	// One context's answer is in document order as it stands; merged ones
	// may interleave and repeat.
	if len(ctx) > 1 {
		return r.nav.InOrder(r.doc, s.out)
	}
	return s.out
}

// filter keeps the nodes of seg — one context's candidates in axis order —
// that satisfy pred, compacting seg in place.
func (r *run) filter(seg []*xmltree.Node, pred Expr) []*xmltree.Node {
	if k, ok := pred.(NumberLit); ok {
		// A bare number is position() = k: it selects one node, or none,
		// without evaluating anything per candidate.
		if i := position(k); i >= 1 && i <= len(seg) {
			seg[0] = seg[i-1]
			return seg[:1]
		}
		return seg[:0]
	}
	kept := seg[:0]
	for i, n := range seg {
		if r.truth(r.evalExpr(n, i+1, len(seg), pred), i+1) {
			kept = append(kept, n)
		}
	}
	return kept
}

// reverseAxis reports whether axis emits nodes in reverse document order
// (nearest first).
func reverseAxis(a Axis) bool {
	switch a {
	case AxisAncestor, AxisAncestorOrSelf, AxisPreceding, AxisPrecedingSibling:
		return true
	}
	return false
}

// axis walks the axis of one context node in axis order (reverse axes
// nearest first). The synthetic Document node and attributes — which no
// numbering need cover — are handled here by pointer; everything else is
// the Navigator's.
func (r *run) axis(c *xmltree.Node, axis Axis, visit Visit) bool {
	nav := r.nav
	switch c.Kind {
	case xmltree.Document:
		switch axis {
		case AxisChild:
			return all(c.Children, visit)
		case AxisDescendant:
			return below(c, false, visit)
		case AxisDescendantOrSelf:
			return visit(c) && below(c, false, visit)
		case AxisSelf:
			return visit(c)
		}
		return true
	case xmltree.Attribute:
		// Attributes have a parent and ancestors but no other axes here.
		switch axis {
		case AxisParent:
			return visit(c.Parent)
		case AxisAncestor:
			return visit(c.Parent) && nav.Ancestors(c.Parent, visit) && visit(r.doc)
		case AxisAncestorOrSelf:
			return visit(c) && visit(c.Parent) && nav.Ancestors(c.Parent, visit) && visit(r.doc)
		case AxisSelf:
			return visit(c)
		}
		return true
	}
	switch axis {
	case AxisChild:
		return nav.Children(c, visit)
	case AxisDescendant:
		return nav.Descendants(c, visit)
	case AxisDescendantOrSelf:
		return visit(c) && nav.Descendants(c, visit)
	case AxisParent:
		if p, ok := nav.Parent(c); ok {
			return visit(p)
		}
		return visit(r.doc) // the root element's parent is "/"
	case AxisAncestor:
		return nav.Ancestors(c, visit) && visit(r.doc)
	case AxisAncestorOrSelf:
		return visit(c) && nav.Ancestors(c, visit) && visit(r.doc)
	case AxisFollowingSibling:
		return nav.FollowingSiblings(c, visit)
	case AxisPrecedingSibling:
		return nav.PrecedingSiblings(c, visit)
	case AxisFollowing:
		return nav.Following(c, visit)
	case AxisPreceding:
		return nav.Preceding(c, visit)
	case AxisSelf:
		return visit(c)
	case AxisAttribute:
		for _, a := range c.Attrs {
			if !visit(a) {
				return false
			}
		}
	}
	return true
}

// matches applies a node test.
func matches(n *xmltree.Node, t NodeTest, axis Axis) bool {
	switch t.Kind {
	case TestNode:
		return true
	case TestText:
		return n.Kind == xmltree.Text
	case TestComment:
		return n.Kind == xmltree.Comment
	default: // TestName
		if axis == AxisAttribute {
			return n.Kind == xmltree.Attribute && (t.Name == "*" || n.Name == t.Name)
		}
		if n.Kind != xmltree.Element {
			return false
		}
		return t.Name == "*" || n.Name == t.Name
	}
}

// value is an XPath value: float64, string, bool or []*xmltree.Node.
type value any

// evalExpr evaluates a predicate expression with context node n at
// position pos of size.
func (r *run) evalExpr(n *xmltree.Node, pos, size int, x Expr) value {
	switch x := x.(type) {
	case NumberLit:
		return float64(x)
	case StringLit:
		return string(x)
	case PathExpr:
		return r.selectPath(n, x.Path)
	case FuncCall:
		return r.evalFunc(n, pos, size, x)
	case Binary:
		switch x.Op {
		case "and":
			return r.truth(r.evalExpr(n, pos, size, x.L), pos) &&
				r.truth(r.evalExpr(n, pos, size, x.R), pos)
		case "or":
			return r.truth(r.evalExpr(n, pos, size, x.L), pos) ||
				r.truth(r.evalExpr(n, pos, size, x.R), pos)
		default:
			return compare(x.Op, r.evalExpr(n, pos, size, x.L), r.evalExpr(n, pos, size, x.R))
		}
	default:
		return false
	}
}

func (r *run) evalFunc(n *xmltree.Node, pos, size int, f FuncCall) value {
	switch f.Name {
	case "position":
		return float64(pos)
	case "last":
		return float64(size)
	case "count":
		if len(f.Args) == 1 {
			if ns, ok := r.evalExpr(n, pos, size, f.Args[0]).([]*xmltree.Node); ok {
				return float64(len(ns))
			}
		}
		return float64(0)
	case "name":
		return n.Name
	case "not":
		if len(f.Args) == 1 {
			return !r.truth(r.evalExpr(n, pos, size, f.Args[0]), pos)
		}
		return false
	case "contains":
		if len(f.Args) == 2 {
			s1 := toString(r.evalExpr(n, pos, size, f.Args[0]))
			s2 := toString(r.evalExpr(n, pos, size, f.Args[1]))
			return strings.Contains(s1, s2)
		}
		return false
	case "string-length":
		if len(f.Args) == 1 {
			return float64(len(toString(r.evalExpr(n, pos, size, f.Args[0]))))
		}
		return float64(0)
	default:
		return false
	}
}

// truth converts a predicate value to a boolean: a number predicate is
// positional (position() = number), per the XPath 1.0 rules.
func (r *run) truth(v value, pos int) bool {
	switch v := v.(type) {
	case bool:
		return v
	case float64:
		return float64(pos) == v
	case string:
		return v != ""
	case []*xmltree.Node:
		return len(v) > 0
	default:
		return false
	}
}

// compare implements the XPath 1.0 comparison rules for the supported
// value types, including the existential semantics of node-sets.
func compare(op string, l, r value) bool {
	ln, lIsSet := l.([]*xmltree.Node)
	rn, rIsSet := r.([]*xmltree.Node)
	switch {
	case lIsSet && rIsSet:
		for _, a := range ln {
			for _, b := range rn {
				if cmpAtoms(op, stringValue(a), stringValue(b)) {
					return true
				}
			}
		}
		return false
	case lIsSet:
		for _, a := range ln {
			if cmpMixed(op, stringValue(a), r) {
				return true
			}
		}
		return false
	case rIsSet:
		for _, b := range rn {
			if cmpMixed(flip(op), stringValue(b), l) {
				return true
			}
		}
		return false
	default:
		return cmpMixed(op, toString(l), r)
	}
}

// cmpMixed compares the string s (a node string-value or converted scalar)
// against a scalar value under op, with numeric coercion when the scalar is
// a number.
func cmpMixed(op, s string, scalar value) bool {
	switch sv := scalar.(type) {
	case float64:
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return false
		}
		return cmpFloats(op, f, sv)
	case bool:
		return cmpAtoms(op, s, toString(sv))
	default:
		return cmpAtoms(op, s, toString(scalar))
	}
}

func cmpAtoms(op, a, b string) bool {
	fa, ea := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, eb := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if ea == nil && eb == nil {
		return cmpFloats(op, fa, fb)
	}
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

func cmpFloats(op string, a, b float64) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

func flip(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// stringValue returns the XPath string-value of a node.
func stringValue(n *xmltree.Node) string { return n.Texts() }

func toString(v value) string {
	switch v := v.(type) {
	case string:
		return v
	case float64:
		return trimFloat(v)
	case bool:
		if v {
			return "true"
		}
		return "false"
	case []*xmltree.Node:
		if len(v) == 0 {
			return ""
		}
		return stringValue(v[0])
	default:
		return ""
	}
}
