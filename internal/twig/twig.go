// Package twig matches branching tree patterns ("twigs") against a numbered
// document using identifier joins only — the natural extension of the
// paper's §4 query-evaluation application to queries like //a[b][c//d]//e,
// and the problem class the related work's containment-query papers ([11]
// of §6) address.
//
// A pattern is compiled from an XPath location path whose steps use child
// or descendant axes with plain name tests, and whose predicates are
// relative paths of the same shape. Matching runs in two passes over the
// element-name index:
//
//  1. bottom-up: a pattern node's candidate list keeps the elements that
//     embed the node's whole pattern subtree below them (semi-joins with
//     the children's satisfied lists);
//  2. top-down: candidates are filtered to those whose ancestor chain
//     realizes the pattern path to the root (the PathQuery pipeline).
//
// The survivors of the output node (the last step of the main path) are
// exactly the elements participating in at least one full embedding.
package twig

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
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
	var branches, spine []*Node
	for _, c := range n.Children {
		if c.spineMark {
			spine = append(spine, c)
		} else {
			branches = append(branches, c)
		}
	}
	for _, c := range branches {
		b.WriteString("[")
		var cb strings.Builder
		c.render(&cb, false)
		b.WriteString(strings.TrimPrefix(cb.String(), "/"))
		b.WriteString("]")
	}
	for _, c := range spine {
		c.render(b, false)
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
	spine, err := compileSteps(path.Steps, true)
	if err != nil {
		return nil, err
	}
	// Mark the last spine node as the output.
	out := spine
	for {
		var next *Node
		for _, c := range out.Children {
			if c.spineMark {
				next = c
			}
		}
		if next == nil {
			break
		}
		out = next
	}
	out.Output = true
	return spine, nil
}

// compileSteps converts a step list into a chain of pattern nodes; isRoot
// affects the anchoring of the first name step.
func compileSteps(steps []xpath.Step, isRoot bool) (*Node, error) {
	var first, cur *Node
	sawDescendant := false
	for _, s := range steps {
		if len(s.Predicates) > 0 && s.Test.Kind != xpath.TestName {
			return nil, fmt.Errorf("%w: predicate on non-name step", ErrNotTwig)
		}
		if s.Axis == xpath.AxisDescendantOrSelf && s.Test.Kind == xpath.TestNode && len(s.Predicates) == 0 {
			sawDescendant = true
			continue
		}
		if s.Axis != xpath.AxisChild || s.Test.Kind != xpath.TestName || s.Test.Name == "*" {
			return nil, fmt.Errorf("%w: step %v", ErrNotTwig, s)
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
				return nil, fmt.Errorf("%w: unsupported predicate %v", ErrNotTwig, pred)
			}
			if pe.Path.Absolute {
				return nil, fmt.Errorf("%w: absolute predicate path", ErrNotTwig)
			}
			branch, err := compileSteps(pe.Path.Steps, false)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, branch)
		}
		cur = n
		sawDescendant = false
	}
	if sawDescendant || first == nil {
		return nil, fmt.Errorf("%w: dangling '//'", ErrNotTwig)
	}
	return first, nil
}

// MatchIDs evaluates the pattern against a name index and returns the output
// node's matches in document order: every semi-join of both passes runs on
// concrete core.ID identifiers with no interface boxing or per-probe key
// allocation. ok is false when the pattern has no output node, which only a
// hand-built pattern can lack (Compile always marks one). Semi-joins are
// scheduled by the process-wide default executor; MatchIDsWith takes an
// explicit one.
func MatchIDs(p *Node, ix *index.NameIndex) (ids []core.ID, ok bool) {
	return MatchIDsWith(p, ix, exec.Default())
}

// MatchIDsWith is MatchIDs with every semi-join of both passes scheduled by
// e: large postings are sharded by frame area and probed concurrently, and
// the parallel and serial paths return identical identifier sequences.
func MatchIDsWith(p *Node, ix *index.NameIndex, e *exec.Executor) (ids []core.ID, ok bool) {
	n := ix.RUID()
	sat := satisfy(p, ix, n, e)
	// Top-down prefix filtering along the output path.
	cur := sat[p]
	if p.Anchored {
		// The document root precedes every other element in document order,
		// so if RootID is in the (ordered) list it is the first entry — no
		// need to decode a block-compressed list to look for it.
		anchored := make([]core.ID, 0, 1)
		if cur.Len() > 0 {
			first := cur.Slice()
			var head core.ID
			if pl := cur.List(); pl != nil {
				head = pl.First()
			} else {
				head = first[0]
			}
			if head == core.RootID {
				anchored = append(anchored, core.RootID)
			}
		}
		cur = index.SlicePostings(anchored)
	}
	node := p
	for !node.Output {
		var next *Node
		for _, c := range node.Children {
			if c.onOutputPath() {
				next = c
			}
		}
		if next == nil {
			return nil, false
		}
		if next.Edge == Descendant {
			cur = index.SlicePostings(e.UpwardSemiJoin(n, cur, sat[next]))
		} else {
			cur = index.SlicePostings(e.ParentSemiJoin(n, cur, sat[next]))
		}
		node = next
	}
	return cur.Materialize(), true
}

// satisfy computes, bottom-up, the elements that embed each pattern node's
// subtree, as Postings views. A leaf's view is the index's block-compressed
// postings untouched — a leaf that only feeds a semi-join is probed through
// its skip table and never materialized. Each semi-join runs through e.
func satisfy(p *Node, ix *index.NameIndex, n *core.Numbering, e *exec.Executor) map[*Node]index.Postings {
	sat := make(map[*Node]index.Postings)
	var walk func(t *Node)
	walk = func(t *Node) {
		for _, c := range t.Children {
			walk(c)
		}
		cur := ix.Postings(t.Name)
		for _, c := range t.Children {
			if cur.Len() == 0 {
				break
			}
			if c.Edge == Descendant {
				cur = index.SlicePostings(e.AncestorSemiJoin(n, cur, sat[c]))
			} else {
				cur = index.SlicePostings(e.ChildSemiJoin(n, cur, sat[c]))
			}
		}
		sat[t] = cur
	}
	walk(p)
	return sat
}
