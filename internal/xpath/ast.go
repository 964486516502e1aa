// Package xpath implements the XPath 1.0 location-path subset that §3.5 of
// the paper targets: the core grammar
//
//	[1] LocationPath         ::= RelativeLocationPath | AbsoluteLocationPath
//	[2] AbsoluteLocationPath ::= '/' RelativeLocationPath? | '//' RelativeLocationPath
//	[3] RelativeLocationPath ::= Step | RelativeLocationPath '/' Step
//
// with steps of the form axis::node-test[predicate]*, the abbreviations
// '.', '..', '@name', '*' and '//', and a predicate expression language
// covering positions, position()/last()/count(), string and numeric
// comparisons, and/or, and nested relative paths.
//
// Evaluation is generic over a Navigator, with two implementations: one
// driven by a numbering scheme's axis arithmetic (the paper's approach) and
// one by direct pointer navigation (the ground truth the scheme-driven
// engine is validated against).
//
// There is one evaluator and it streams: a Navigator walks an axis for a
// visitor instead of returning it, a step applies its node test to one
// candidate at a time, t[k] stops the walk at its k-th match, and only a
// step whose predicates need last() or a per-candidate evaluation collects
// a context's survivors. Context sets are nodes, which carry their labels;
// a lone context's answer is in document order as it stands, and merged
// contexts and unions are ordered by the Navigator from those labels — the
// Engine keeps no per-node table and no state of its own, so one engine
// serves an epoch's concurrent readers, each evaluation in its own run,
// which also counts the candidates visited and samples the caller's stop
// test.
package xpath

import (
	"fmt"
	"strings"
)

// Axis enumerates the supported XPath axes.
type Axis int

// Supported axes. The positional ones are those §3.5 discusses; self and
// the -or-self variants are included because location paths need them
// ("due to triviality", as the paper puts it).
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisFollowing
	AxisPreceding
	AxisSelf
	AxisAttribute
)

var axisNames = map[Axis]string{
	AxisChild:            "child",
	AxisDescendant:       "descendant",
	AxisDescendantOrSelf: "descendant-or-self",
	AxisParent:           "parent",
	AxisAncestor:         "ancestor",
	AxisAncestorOrSelf:   "ancestor-or-self",
	AxisFollowingSibling: "following-sibling",
	AxisPrecedingSibling: "preceding-sibling",
	AxisFollowing:        "following",
	AxisPreceding:        "preceding",
	AxisSelf:             "self",
	AxisAttribute:        "attribute",
}

// String returns the axis name as written in XPath.
func (a Axis) String() string { return axisNames[a] }

// axisByName maps XPath axis names to Axis values.
var axisByName = func() map[string]Axis {
	m := make(map[string]Axis, len(axisNames))
	for a, n := range axisNames {
		m[n] = a
	}
	return m
}()

// Reverse reports whether the axis is an XPath reverse axis (positions
// count from the context node outward).
func (a Axis) Reverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisAncestorOrSelf, AxisPrecedingSibling, AxisPreceding:
		return true
	}
	return false
}

// NodeTestKind classifies a node test.
type NodeTestKind int

// Node test kinds.
const (
	TestName    NodeTestKind = iota // element (or attribute) name, "*" for any
	TestNode                        // node()
	TestText                        // text()
	TestComment                     // comment()
)

// NodeTest is the node-test part of a step.
type NodeTest struct {
	Kind NodeTestKind
	Name string // for TestName; "*" matches any
}

// String renders the node test in XPath syntax.
func (t NodeTest) String() string {
	switch t.Kind {
	case TestNode:
		return "node()"
	case TestText:
		return "text()"
	case TestComment:
		return "comment()"
	default:
		return t.Name
	}
}

// Step is one location step: axis, node test, and predicates.
type Step struct {
	Axis       Axis
	Test       NodeTest
	Predicates []Expr
}

// String renders the step in unabbreviated syntax.
func (s Step) String() string {
	var b strings.Builder
	b.WriteString(s.Axis.String())
	b.WriteString("::")
	b.WriteString(s.Test.String())
	for _, p := range s.Predicates {
		fmt.Fprintf(&b, "[%s]", p)
	}
	return b.String()
}

// Path is a parsed location path.
type Path struct {
	Absolute bool
	Steps    []Step
}

// String renders the path in unabbreviated syntax.
func (p Path) String() string {
	var b strings.Builder
	if p.Absolute {
		b.WriteByte('/')
	}
	for i, s := range p.Steps {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// Expr is a predicate expression node.
type Expr interface {
	fmt.Stringer
	expr()
}

// NumberLit is a numeric literal (a bare number predicate is positional).
type NumberLit float64

func (NumberLit) expr()            {}
func (n NumberLit) String() string { return trimFloat(float64(n)) }

// StringLit is a quoted string literal.
type StringLit string

func (StringLit) expr()            {}
func (s StringLit) String() string { return "'" + string(s) + "'" }

// PathExpr is a nested relative location path used as an expression.
type PathExpr struct{ Path Path }

func (PathExpr) expr()            {}
func (p PathExpr) String() string { return p.Path.String() }

// FuncCall is one of the supported functions: position(), last(), count(p),
// name(), not(e).
type FuncCall struct {
	Name string
	Args []Expr
}

func (FuncCall) expr() {}
func (f FuncCall) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return f.Name + "(" + strings.Join(args, ", ") + ")"
}

// Binary is a binary operation: comparison, and, or.
type Binary struct {
	Op    string // "=", "!=", "<", "<=", ">", ">=", "and", "or"
	L, R  Expr
	Paren bool
}

func (Binary) expr() {}
func (b Binary) String() string {
	s := fmt.Sprintf("%s %s %s", b.L, b.Op, b.R)
	if b.Paren {
		return "(" + s + ")"
	}
	return s
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}
