// Package twig matches tree patterns ("twigs") against a numbered document
// using identifier joins only — the paper's §4 query-evaluation application,
// extended from name chains like /a//b/c to branching queries like
// //a[b][c//d]//e, the problem class the related work's containment-query
// papers ([11] of §6) address.
//
// A pattern is compiled from an XPath location path whose steps use child
// or descendant axes with plain name tests, and whose predicates are
// relative paths of the same shape. Its spine is the main path, from the
// first step to the output node (the last step); the predicates hang off
// the spine as branches. A join chain is a pattern without branches, and
// every pattern runs through one pipeline over the element-name index:
//
//  1. top-down along the spine: the first step's postings seed it, and each
//     further spine node keeps its candidates that lie below a survivor of
//     the node above (an upward semi-join on '//', a parent semi-join on
//     '/'), so the survivors realize the spine path to the root;
//  2. bottom-up inside each branch: a spine node's candidates are its
//     postings kept where they embed each of its branches (an ancestor or
//     child semi-join with the branch node's own candidates, computed the
//     same way).
//
// The survivors of the output node are exactly the elements participating
// in at least one full embedding.
package twig

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/xpath"
)

// Edge is the relationship of a pattern node to its pattern parent.
type Edge int

// Edge kinds.
const (
	Child      Edge = iota // '/'
	Descendant             // '//'
)

func (e Edge) String() string {
	if e == Descendant {
		return "//"
	}
	return "/"
}

// Node is one node of a compiled twig pattern.
type Node struct {
	Name     string
	Edge     Edge // relationship to the parent pattern node (root: Descendant from the document root unless anchored)
	Anchored bool // root only: '/name' (must be the document root element)
	Output   bool // the node whose matches are returned
	Children []*Node

	spineMark bool // internal: child lies on the main path, not a predicate
}

// String renders the pattern in XPath-ish syntax.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, true)
	return b.String()
}

func (n *Node) render(b *strings.Builder, isRoot bool) {
	if isRoot {
		if n.Anchored {
			b.WriteString("/")
		} else {
			b.WriteString("//")
		}
	} else {
		b.WriteString(n.Edge.String())
	}
	b.WriteString(n.Name)
	if n.Output {
		b.WriteString("*")
	}
	for _, c := range n.Children {
		if !c.spineMark {
			var cb strings.Builder
			c.render(&cb, false)
			b.WriteString("[" + strings.TrimPrefix(cb.String(), "/") + "]")
		}
	}
	for _, c := range n.Children {
		if c.spineMark {
			c.render(b, false)
		}
	}
}

func (n *Node) onOutputPath() bool {
	if n.Output {
		return true
	}
	for _, c := range n.Children {
		if c.onOutputPath() {
			return true
		}
	}
	return false
}

// ErrNotTwig reports a location path outside the compilable fragment.
var ErrNotTwig = errors.New("twig: query is not a name-test twig pattern")

// Compile parses src as an XPath location path and compiles it to a twig
// pattern. The main path's steps become the spine (the last step is the
// output node); every predicate must itself be a relative name-test path
// and becomes a filter branch.
func Compile(src string) (*Node, error) {
	path, err := xpath.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompilePath(path)
}

// CompilePath compiles a parsed location path to a twig pattern.
func CompilePath(path xpath.Path) (*Node, error) {
	if !path.Absolute || len(path.Steps) == 0 {
		return nil, fmt.Errorf("%w: must be absolute", ErrNotTwig)
	}
	root, last, err := compileSteps(path.Steps, true)
	if err != nil {
		return nil, err
	}
	last.Output = true
	return root, nil
}

// compileSteps converts a step list into a chain of pattern nodes and
// returns its first and last node; isRoot affects the anchoring of the
// first name step.
func compileSteps(steps []xpath.Step, isRoot bool) (first, cur *Node, err error) {
	sawDescendant := false
	for _, s := range steps {
		if len(s.Predicates) > 0 && s.Test.Kind != xpath.TestName {
			return nil, nil, fmt.Errorf("%w: predicate on non-name step", ErrNotTwig)
		}
		if s.Axis == xpath.AxisDescendantOrSelf && s.Test.Kind == xpath.TestNode && len(s.Predicates) == 0 {
			sawDescendant = true
			continue
		}
		if s.Axis != xpath.AxisChild || s.Test.Kind != xpath.TestName || s.Test.Name == "*" {
			return nil, nil, fmt.Errorf("%w: step %v", ErrNotTwig, s)
		}
		n := &Node{Name: s.Test.Name}
		if sawDescendant {
			n.Edge = Descendant
		} else {
			n.Edge = Child
		}
		if first == nil {
			if isRoot {
				n.Anchored = !sawDescendant
			}
			first = n
		} else {
			n.spineMark = true
			cur.Children = append(cur.Children, n)
		}
		for _, pred := range s.Predicates {
			pe, ok := pred.(xpath.PathExpr)
			if !ok {
				return nil, nil, fmt.Errorf("%w: unsupported predicate %v", ErrNotTwig, pred)
			}
			if pe.Path.Absolute {
				return nil, nil, fmt.Errorf("%w: absolute predicate path", ErrNotTwig)
			}
			branch, _, err := compileSteps(pe.Path.Steps, false)
			if err != nil {
				return nil, nil, err
			}
			n.Children = append(n.Children, branch)
		}
		cur = n
		sawDescendant = false
	}
	if sawDescendant || first == nil {
		return nil, nil, fmt.Errorf("%w: dangling '//'", ErrNotTwig)
	}
	return first, cur, nil
}

// SpineNames returns the names along the pattern's main path: the root's,
// then each node's on the way down to the output node. It is nil when the
// pattern has no output node, which only a hand-built pattern can lack
// (Compile always marks one).
func (n *Node) SpineNames() []string {
	if !n.onOutputPath() {
		return nil
	}
	size := 0
	for t := n; t != nil; t = t.spineChild() {
		size++
	}
	names := make([]string, 0, size)
	for t := n; t != nil; t = t.spineChild() {
		names = append(names, t.Name)
	}
	return names
}

// spineChild returns the child on the way down to the output node, nil at
// the output node itself or where no output node lies below.
func (n *Node) spineChild() *Node {
	if n.Output {
		return nil
	}
	for _, c := range n.Children {
		if c.onOutputPath() {
			return c
		}
	}
	return nil
}

// Match evaluates the pattern against a name index and returns the output
// node's matches in document order as a Postings view: an executor result
// the caller owns, or for an unanchored seed-only pattern such as //bidder
// the index's own block list, undecoded. n is the answer's size. ok is false
// when the pattern has no output node.
//
// With count set, Match runs in count shape and the view is empty: only n
// is wanted, so no answer is kept. The last spine semi-join counts its rows
// without writing them (exec's Count form); an answer with no spine step
// after it — a twig whose output is its root, such as //open_auction[bidder]
// — is read for its size and handed back to e; a seed-only pattern's size is
// its list's, nothing decoded.
//
// Every semi-join runs on concrete identifiers through e. Each intermediate goes back to e (exec.ReleaseIDs) once the
// semi-join reading it has returned, and the pipeline stops at the first
// empty one. With a non-nil tr the seed and every semi-join get a span of
// their own, carrying cardinalities and the executor's block statistics; an
// untraced match builds no span name.
func Match(p *Node, ix *index.NameIndex, e *exec.Executor, tr *obs.Trace, count bool) (ids index.Postings, n int, ok bool) {
	if !p.onOutputPath() {
		return index.Postings{}, 0, false
	}
	m := &matcher{ix: ix, e: e, tr: tr}
	below := p.spineChild() // the one child of a spine node that is no branch
	cur := m.satisfy(p, below, m.seed(p))
	for t := below; t != nil; t = below {
		if cur.Len() == 0 {
			tr.Notef("pipeline short-circuit: empty intermediate result before %s", t.Name)
			cur.release()
			return index.Postings{}, 0, true
		}
		below = t.spineChild()
		k := parentSemi
		if t.Edge == Descendant {
			k = upwardSemi
		}
		descs := m.satisfy(t, below, match{Postings: ix.Postings(t.Name)})
		if count && below == nil {
			return index.Postings{}, m.count(k, t, cur, descs), true
		}
		cur = m.join(k, nil, t, cur, descs)
	}
	if count {
		n := cur.Len()
		cur.release()
		return index.Postings{}, n, true
	}
	return cur.Postings, cur.Len(), true
}

// MatchIDsWith is Match materialised and untraced: the answer, a fresh slice
// or an executor result, is the caller's.
func MatchIDsWith(p *Node, ix *index.NameIndex, e *exec.Executor) (ids []core.ID, ok bool) {
	res, _, ok := Match(p, ix, e, nil, false)
	return res.Materialize(), ok
}

// match is one step's set of elements as a Postings view: the index's own
// list, or an executor result the match owns and releases after its last
// read.
type match struct {
	index.Postings
	own []core.ID
}

func (m match) release() { exec.ReleaseIDs(m.own) }

// kernel is one of the executor's semi-joins, named as its span is. Spine
// steps keep the descendant side, branch steps the ancestor side; a spine
// kernel also has a counting form, for the last step of a counted match.
type kernel struct {
	name  string
	run   func(*exec.Executor, *core.Numbering, index.Postings, index.Postings) []core.ID
	count func(*exec.Executor, *core.Numbering, index.Postings, index.Postings) int
}

var (
	upwardSemi   = kernel{"upward_semi_join", (*exec.Executor).UpwardSemiJoin, (*exec.Executor).CountUpwardSemiJoin}
	parentSemi   = kernel{"parent_semi_join", (*exec.Executor).ParentSemiJoin, (*exec.Executor).CountParentSemiJoin}
	ancestorSemi = kernel{"ancestor_semi_join", (*exec.Executor).AncestorSemiJoin, nil}
	childSemi    = kernel{"child_semi_join", (*exec.Executor).ChildSemiJoin, nil}
)

// matcher is the state of one Match.
type matcher struct {
	ix *index.NameIndex
	e  *exec.Executor
	tr *obs.Trace
}

// seed returns the root's postings; for an anchored root ('/name'), the
// document element alone when it carries the name. The document element
// precedes every other element, so it can only be the list's first entry:
// no block is decoded to look for it.
func (m *matcher) seed(t *Node) match {
	var sp *obs.Span
	if m.tr != nil {
		pre := "//"
		if t.Anchored {
			pre = "/"
		}
		sp = m.tr.StartSpan("seed " + pre + t.Name)
	}
	cur := m.ix.Postings(t.Name)
	if t.Anchored {
		var anchored []core.ID
		if pl := cur.List(); pl.Len() > 0 && pl.First() == core.RootID {
			anchored = []core.ID{core.RootID}
		}
		cur = index.SlicePostings(anchored)
	}
	endStep(sp, cur.Len())
	return match{Postings: cur}
}

// satisfy keeps the candidates of t that embed each of t's branches — every
// child but below, t's spine child — below them. A branch's own candidates
// come from satisfy in turn, bottom-up, and only while t has candidates
// left.
func (m *matcher) satisfy(t, below *Node, cands match) match {
	for _, c := range t.Children {
		if cands.Len() == 0 {
			break
		}
		if c != below {
			k := childSemi
			if c.Edge == Descendant {
				k = ancestorSemi
			}
			cands = m.join(k, t, c, cands, m.satisfy(c, nil, match{Postings: m.ix.Postings(c.Name)}))
		}
	}
	return cands
}

// join runs one semi-join and releases both inputs.
func (m *matcher) join(k kernel, t, c *Node, ancs, descs match) match {
	sp, ex := m.open(k, t, c, ancs, descs)
	out := k.run(ex, m.ix.RUID(), ancs.Postings, descs.Postings)
	ancs.release()
	descs.release()
	endStep(sp, len(out))
	return match{Postings: index.SlicePostings(out), own: out}
}

// count is join's counting form, for the last spine step onto c: it returns
// the number of rows the step keeps and writes none of them.
func (m *matcher) count(k kernel, c *Node, ancs, descs match) int {
	sp, ex := m.open(k, nil, c, ancs, descs)
	n := k.count(ex, m.ix.RUID(), ancs.Postings, descs.Postings)
	ancs.release()
	descs.release()
	endStep(sp, n)
	return n
}

// open starts the span of one semi-join and returns it with the executor to
// run the join on. Traced, the span is named for the step — "t[c] kernel"
// for t's branch c, "//c kernel" for the spine step onto c (t nil) — and the
// executor records into it; untraced, both are the receiver's.
func (m *matcher) open(k kernel, t, c *Node, ancs, descs match) (*obs.Span, *exec.Executor) {
	if m.tr == nil {
		return nil, m.e
	}
	name := c.Edge.String() + c.Name
	if t != nil && c.Edge == Child {
		name = t.Name + "[" + c.Name + "]"
	} else if t != nil {
		name = t.Name + "[.//" + c.Name + "]"
	}
	sp := m.tr.StartSpan(name + " " + k.name)
	sp.SetInt("ancs", int64(ancs.Len()))
	sp.SetInt("descs", int64(descs.Len()))
	return sp, m.e.WithSpan(sp)
}

// endStep records a traced step's output size and ends its span; an untraced
// step's span is nil.
func endStep(sp *obs.Span, out int) {
	sp.SetInt("out", int64(out))
	sp.End()
}
