package scheme

import (
	"fmt"
	"os"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Navigator walks the axes of any AxisScheme for the XPath engine, the way
// experiments E5 and E9 and the multi-scheme XPath tests compare schemes: an
// axis is generated as a boxed identifier list, and the list is resolved back
// to nodes one identifier at a time, so a walk the consumer stops early
// resolves nothing past the stop. Served queries navigate ruid through
// xpath.SchemeNavigator instead, which generates nothing.
type Navigator struct {
	S AxisScheme
}

// debugChecks makes a generated identifier that resolves to no node a panic
// instead of a shorter answer. Seeded from RUID_DEBUG like the core, index
// and query checks.
var debugChecks = os.Getenv("RUID_DEBUG") != ""

// Name implements xpath.Navigator.
func (v Navigator) Name() string { return v.S.Name() }

// walk walks one boxed axis of n: generate the identifier list, then
// resolve and visit one identifier at a time, back to front when rev.
func (v Navigator) walk(n *xmltree.Node, axis func(AxisScheme, ID) []ID, rev bool, visit xpath.Visit) bool {
	id, ok := v.S.IDOf(n)
	if !ok {
		return true
	}
	ids := axis(v.S, id)
	for i := range ids {
		if rev {
			i = len(ids) - 1 - i
		}
		if x, ok := v.resolve(ids[i]); ok && !visit(x) {
			return false
		}
	}
	return true
}

// resolve returns the node a generated identifier names.
func (v Navigator) resolve(id ID) (*xmltree.Node, bool) {
	x, ok := v.S.NodeOf(id)
	if !ok && debugChecks {
		panic(fmt.Sprintf("scheme: %s generated identifier %s, which resolves to no node", v.S.Name(), id))
	}
	return x, ok
}

// Parent implements xpath.Navigator.
func (v Navigator) Parent(n *xmltree.Node) (*xmltree.Node, bool) {
	id, ok := v.S.IDOf(n)
	if !ok {
		return nil, false
	}
	pid, ok := v.S.Parent(id)
	if !ok {
		return nil, false
	}
	return v.S.NodeOf(pid)
}

// Children implements xpath.Navigator.
func (v Navigator) Children(n *xmltree.Node, visit xpath.Visit) bool {
	return v.walk(n, AxisScheme.Children, false, visit)
}

// ChildAt implements xpath.Navigator: the j-th identifier of the generated
// child list, resolved alone. A boxed scheme pays for the list, which is
// what its positional step costs; a registered scheme lists no attributes.
func (v Navigator) ChildAt(n *xmltree.Node, j int) (*xmltree.Node, bool) {
	id, ok := v.S.IDOf(n)
	if !ok {
		return nil, false
	}
	ids := v.S.Children(id)
	if j < 1 || j > len(ids) {
		return nil, false
	}
	return v.resolve(ids[j-1])
}

// Descendants implements xpath.Navigator.
func (v Navigator) Descendants(n *xmltree.Node, visit xpath.Visit) bool {
	return v.walk(n, AxisScheme.Descendants, false, visit)
}

// Ancestors implements xpath.Navigator.
func (v Navigator) Ancestors(n *xmltree.Node, visit xpath.Visit) bool {
	return v.walk(n, AxisScheme.Ancestors, false, visit)
}

// FollowingSiblings implements xpath.Navigator.
func (v Navigator) FollowingSiblings(n *xmltree.Node, visit xpath.Visit) bool {
	return v.walk(n, AxisScheme.FollowingSiblings, false, visit)
}

// PrecedingSiblings implements xpath.Navigator.
func (v Navigator) PrecedingSiblings(n *xmltree.Node, visit xpath.Visit) bool {
	return v.walk(n, AxisScheme.PrecedingSiblings, false, visit)
}

// Following implements xpath.Navigator.
func (v Navigator) Following(n *xmltree.Node, visit xpath.Visit) bool {
	return v.walk(n, AxisScheme.Following, false, visit)
}

// Preceding implements xpath.Navigator; AxisScheme states the list in
// document order, so it is walked back to front.
func (v Navigator) Preceding(n *xmltree.Node, visit xpath.Visit) bool {
	return v.walk(n, AxisScheme.Preceding, true, visit)
}

// InOrder implements xpath.Navigator from the identifiers the nodes carry.
func (v Navigator) InOrder(doc *xmltree.Node, ns []*xmltree.Node) []*xmltree.Node {
	return xpath.OrderByLabels(doc, ns, func(a, b *xmltree.Node) (int, bool) {
		ia, oka := v.S.IDOf(a)
		ib, okb := v.S.IDOf(b)
		if !oka || !okb {
			return 0, false
		}
		return v.S.CompareOrder(ia, ib), true
	})
}
