package xpath

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/xmltree"
)

// Navigator supplies the positional axes over the element tree. The engine
// is generic over it: SchemeNavigator derives axes from identifier
// arithmetic (the paper's approach), PointerNavigator from parent/child
// pointers (the ground truth).
type Navigator interface {
	// Name identifies the navigator in benchmark output.
	Name() string
	Children(n *xmltree.Node) []*xmltree.Node
	Parent(n *xmltree.Node) (*xmltree.Node, bool)
	Descendants(n *xmltree.Node) []*xmltree.Node
	Ancestors(n *xmltree.Node) []*xmltree.Node // nearest first
	FollowingSiblings(n *xmltree.Node) []*xmltree.Node
	PrecedingSiblings(n *xmltree.Node) []*xmltree.Node // nearest first
	Following(n *xmltree.Node) []*xmltree.Node
	Preceding(n *xmltree.Node) []*xmltree.Node
}

// Engine evaluates location paths over one document snapshot.
type Engine struct {
	doc      *xmltree.Node
	nav      Navigator
	rankOnce sync.Once
	rank     map[*xmltree.Node]int // document-order rank, attributes included
}

// NewEngine returns an engine over doc (its Document node) using nav for
// the positional axes. Construction is O(1): the document-order rank map
// (needed only to sort node-sets that merge several context nodes or come
// from a reverse axis) is built lazily on first use, so engines created
// for a single cheap lookup — or for an epoch that is published but never
// queried — never pay an O(n) walk.
func NewEngine(doc *xmltree.Node, nav Navigator) *Engine {
	return &Engine{doc: doc, nav: nav}
}

// ensureRank builds the document-order rank map on first use. The build is
// guarded by a sync.Once because one engine (one published epoch's
// planner) serves concurrent readers.
func (e *Engine) ensureRank() {
	e.rankOnce.Do(func() {
		rank := make(map[*xmltree.Node]int)
		i := 0
		e.doc.WalkFull(func(n *xmltree.Node) bool {
			rank[n] = i
			i++
			return true
		})
		e.rank = rank
	})
}

// Navigator returns the engine's navigator.
func (e *Engine) Navigator() Navigator { return e.nav }

// Select evaluates a location path with the given context node (ignored
// for absolute paths) and returns the result node-set in document order.
func (e *Engine) Select(ctx *xmltree.Node, path Path) []*xmltree.Node {
	set := []*xmltree.Node{ctx}
	if path.Absolute {
		set = []*xmltree.Node{e.doc}
	}
	for _, step := range path.Steps {
		set = e.evalStep(set, step)
	}
	return set
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
	if len(paths) == 1 {
		return e.Select(e.doc, paths[0])
	}
	return e.SelectUnion(e.doc, paths)
}

// evalStep applies one location step to a node-set in document order.
func (e *Engine) evalStep(ctx []*xmltree.Node, step Step) []*xmltree.Node {
	var out []*xmltree.Node
	// One context node on one axis cannot yield a node twice; only merged
	// contexts need the duplicate filter.
	var seen map[*xmltree.Node]bool
	if len(ctx) > 1 {
		seen = map[*xmltree.Node]bool{}
	}
	for _, c := range ctx {
		axis := e.axisNodes(c, step.Axis)
		// Node test first (the "initial node-set" of the spec), then the
		// predicates in turn, each with fresh positions.
		filtered := axis[:0:0]
		for _, n := range axis {
			if matches(n, step.Test, step.Axis) {
				filtered = append(filtered, n)
			}
		}
		for _, pred := range step.Predicates {
			if k, ok := pred.(NumberLit); ok {
				// A bare number is position() = k: it selects one node, or none
				// when k is fractional or out of range, without evaluating
				// anything per candidate.
				if i := int(k); float64(i) == float64(k) && i >= 1 && i <= len(filtered) {
					filtered = filtered[i-1 : i : i]
				} else {
					filtered = nil
				}
				continue
			}
			kept := filtered[:0:0]
			for i, n := range filtered {
				pos := i + 1 // axis order already honors direction
				if e.truth(e.evalExpr(n, pos, len(filtered), pred), pos) {
					kept = append(kept, n)
				}
			}
			filtered = kept
		}
		if seen == nil { // c is the only context node
			out = filtered
			break
		}
		for _, n := range filtered {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	// A single context node expanded along a forward axis is already in
	// document order; only merged or reverse-axis results need the sort
	// (and with it the lazily built rank map).
	if len(ctx) > 1 || reverseAxis(step.Axis) {
		e.ensureRank()
		sort.Slice(out, func(i, j int) bool { return e.rank[out[i]] < e.rank[out[j]] })
	}
	return out
}

// reverseAxis reports whether axis emits nodes in reverse document order
// (nearest first), so its results need re-sorting even for one context.
func reverseAxis(a Axis) bool {
	switch a {
	case AxisAncestor, AxisAncestorOrSelf, AxisPreceding, AxisPrecedingSibling:
		return true
	}
	return false
}

// axisNodes generates the axis node list for one context node, in axis
// order (reverse axes nearest-first). The synthetic Document node and the
// attribute axis are handled here; everything else is the Navigator's.
func (e *Engine) axisNodes(c *xmltree.Node, axis Axis) []*xmltree.Node {
	if c.Kind == xmltree.Document {
		switch axis {
		case AxisChild:
			return c.Children
		case AxisDescendant:
			return xmltree.Descendants(c)
		case AxisDescendantOrSelf:
			return append([]*xmltree.Node{c}, xmltree.Descendants(c)...)
		case AxisSelf:
			return []*xmltree.Node{c}
		default:
			return nil
		}
	}
	if c.Kind == xmltree.Attribute {
		// Attributes have a parent and ancestors but no other axes here.
		switch axis {
		case AxisParent:
			return []*xmltree.Node{c.Parent}
		case AxisAncestor, AxisAncestorOrSelf:
			out := []*xmltree.Node{}
			if axis == AxisAncestorOrSelf {
				out = append(out, c)
			}
			out = append(out, c.Parent)
			out = append(out, e.nav.Ancestors(c.Parent)...)
			return append(out, e.doc)
		case AxisSelf:
			return []*xmltree.Node{c}
		default:
			return nil
		}
	}
	switch axis {
	case AxisChild:
		return e.nav.Children(c)
	case AxisDescendant:
		return e.nav.Descendants(c)
	case AxisDescendantOrSelf:
		return append([]*xmltree.Node{c}, e.nav.Descendants(c)...)
	case AxisParent:
		if p, ok := e.nav.Parent(c); ok {
			return []*xmltree.Node{p}
		}
		return []*xmltree.Node{e.doc} // the root element's parent is "/"
	case AxisAncestor:
		return append(e.nav.Ancestors(c), e.doc)
	case AxisAncestorOrSelf:
		return append([]*xmltree.Node{c}, append(e.nav.Ancestors(c), e.doc)...)
	case AxisFollowingSibling:
		return e.nav.FollowingSiblings(c)
	case AxisPrecedingSibling:
		return e.nav.PrecedingSiblings(c)
	case AxisFollowing:
		return e.nav.Following(c)
	case AxisPreceding:
		return reversed(e.nav.Preceding(c)) // reverse axis: nearest first
	case AxisSelf:
		return []*xmltree.Node{c}
	case AxisAttribute:
		return c.Attrs
	default:
		return nil
	}
}

func reversed(ns []*xmltree.Node) []*xmltree.Node {
	out := make([]*xmltree.Node, len(ns))
	for i, n := range ns {
		out[len(ns)-1-i] = n
	}
	return out
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
func (e *Engine) evalExpr(n *xmltree.Node, pos, size int, x Expr) value {
	switch x := x.(type) {
	case NumberLit:
		return float64(x)
	case StringLit:
		return string(x)
	case PathExpr:
		return e.Select(n, x.Path)
	case FuncCall:
		return e.evalFunc(n, pos, size, x)
	case Binary:
		switch x.Op {
		case "and":
			return e.truth(e.evalExpr(n, pos, size, x.L), pos) &&
				e.truth(e.evalExpr(n, pos, size, x.R), pos)
		case "or":
			return e.truth(e.evalExpr(n, pos, size, x.L), pos) ||
				e.truth(e.evalExpr(n, pos, size, x.R), pos)
		default:
			return compare(x.Op, e.evalExpr(n, pos, size, x.L), e.evalExpr(n, pos, size, x.R))
		}
	default:
		return false
	}
}

func (e *Engine) evalFunc(n *xmltree.Node, pos, size int, f FuncCall) value {
	switch f.Name {
	case "position":
		return float64(pos)
	case "last":
		return float64(size)
	case "count":
		if len(f.Args) == 1 {
			if ns, ok := e.evalExpr(n, pos, size, f.Args[0]).([]*xmltree.Node); ok {
				return float64(len(ns))
			}
		}
		return float64(0)
	case "name":
		return n.Name
	case "not":
		if len(f.Args) == 1 {
			return !e.truth(e.evalExpr(n, pos, size, f.Args[0]), pos)
		}
		return false
	case "contains":
		if len(f.Args) == 2 {
			s1 := toString(e.evalExpr(n, pos, size, f.Args[0]))
			s2 := toString(e.evalExpr(n, pos, size, f.Args[1]))
			return strings.Contains(s1, s2)
		}
		return false
	case "string-length":
		if len(f.Args) == 1 {
			return float64(len(toString(e.evalExpr(n, pos, size, f.Args[0]))))
		}
		return float64(0)
	default:
		return false
	}
}

// truth converts a predicate value to a boolean: a number predicate is
// positional (position() = number), per the XPath 1.0 rules.
func (e *Engine) truth(v value, pos int) bool {
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

// SelectUnion evaluates several paths against the same context and returns
// the deduplicated union in document order.
func (e *Engine) SelectUnion(ctx *xmltree.Node, paths []Path) []*xmltree.Node {
	seen := map[*xmltree.Node]bool{}
	var out []*xmltree.Node
	for _, p := range paths {
		for _, n := range e.Select(ctx, p) {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	e.ensureRank()
	sort.Slice(out, func(i, j int) bool { return e.rank[out[i]] < e.rank[out[j]] })
	return out
}
