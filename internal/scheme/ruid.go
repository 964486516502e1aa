package scheme

import (
	"repro/internal/core"
	"repro/internal/xmltree"
)

func init() {
	Register(Registration{
		Name: "ruid",
		Caps: Capabilities{Axes: true, Update: true, ComputedParent: true},
		Build: func(doc *xmltree.Node) (Scheme, error) {
			n, err := core.Build(doc, core.Options{
				Partition: core.PartitionConfig{MaxAreaNodes: 64, AdjustFanout: true},
			})
			if err != nil {
				return nil, err
			}
			return RUID{Num: n}, nil
		},
	})
}

// RUID is the paper's ruid numbering in the bake-off's contract: an
// AxisScheme and Updatable over a *core.Numbering, each method one call of a
// concrete one. Its identifiers are plain core.ID values.
type RUID struct {
	Num *core.Numbering
}

// Name implements Scheme.
func (RUID) Name() string { return "ruid" }

// IDOf implements Scheme via Numbering.RUID.
func (r RUID) IDOf(n *xmltree.Node) (ID, bool) {
	id, ok := r.Num.RUID(n)
	if !ok {
		return nil, false
	}
	return id, true
}

// NodeOf implements Scheme via NodeOfID.
func (r RUID) NodeOf(id ID) (*xmltree.Node, bool) { return r.Num.NodeOfID(id.(core.ID)) }

// Parent implements Scheme via RParent.
func (r RUID) Parent(id ID) (ID, bool) {
	p, ok, err := r.Num.RParent(id.(core.ID))
	if err != nil || !ok {
		return nil, false
	}
	return p, true
}

// IsAncestor implements Scheme via IsAncestorID.
func (r RUID) IsAncestor(anc, desc ID) bool {
	return r.Num.IsAncestorID(anc.(core.ID), desc.(core.ID))
}

// CompareOrder implements Scheme via CompareOrderID.
func (r RUID) CompareOrder(a, b ID) int { return r.Num.CompareOrderID(a.(core.ID), b.(core.ID)) }

// box converts a concrete identifier slice to the boxed form.
func box(ids []core.ID) []ID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]ID, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

// Ancestors implements AxisScheme via AppendAncestors.
func (r RUID) Ancestors(id ID) []ID { return box(r.Num.AppendAncestors(nil, id.(core.ID))) }

// Children implements AxisScheme via AppendChildren.
func (r RUID) Children(id ID) []ID { return box(r.Num.AppendChildren(nil, id.(core.ID))) }

// Descendants implements AxisScheme via AppendDescendants.
func (r RUID) Descendants(id ID) []ID { return box(r.Num.AppendDescendants(nil, id.(core.ID))) }

// FollowingSiblings implements AxisScheme via AppendFollowingSiblings.
func (r RUID) FollowingSiblings(id ID) []ID {
	return box(r.Num.AppendFollowingSiblings(nil, id.(core.ID)))
}

// PrecedingSiblings implements AxisScheme via AppendPrecedingSiblings.
func (r RUID) PrecedingSiblings(id ID) []ID {
	return box(r.Num.AppendPrecedingSiblings(nil, id.(core.ID)))
}

// Following implements AxisScheme via AppendFollowing.
func (r RUID) Following(id ID) []ID { return box(r.Num.AppendFollowing(nil, id.(core.ID))) }

// Preceding implements AxisScheme via AppendPreceding.
func (r RUID) Preceding(id ID) []ID { return box(r.Num.AppendPreceding(nil, id.(core.ID))) }

// InsertChild implements Updatable via InsertChildDelta.
func (r RUID) InsertChild(parent *xmltree.Node, pos int, newChild *xmltree.Node) (UpdateStats, error) {
	st, _, err := r.Num.InsertChildDelta(parent, pos, newChild)
	return st, err
}

// DeleteChild implements Updatable via DeleteChildDelta.
func (r RUID) DeleteChild(parent *xmltree.Node, pos int) (UpdateStats, error) {
	st, _, err := r.Num.DeleteChildDelta(parent, pos)
	return st, err
}
