package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/xmltree"
)

// CloneFor re-points a copy of the numbering at a cloned document tree:
// doc is the clone of the numbered document and mapping maps every
// original node (attributes included) to its clone, as produced by
// xmltree.Node.CloneWithMap.
//
// The clone carries exactly the same identifiers, κ and table K as the
// original — including fan-outs enlarged by past updates — so identifiers
// remain stable across snapshot epochs of the document facade. The clone
// is produced in epoch mode (see Numbering): the table K becomes a chunked
// index sorted by global index whose rows hold the clone's nodes. No stamp
// is assigned here — the tree copy already copied each node's stamp with it.
// The clone shares no mutable state with the original (a row's slots and
// lower arrays are shared, and never edited in place), so it is safe for
// concurrent readers. Epoch clones reject structural updates with
// ErrImmutable.
func (n *Numbering) CloneFor(doc *xmltree.Node, mapping map[*xmltree.Node]*xmltree.Node) (*Numbering, error) {
	remap := func(x *xmltree.Node) (*xmltree.Node, error) {
		c, ok := mapping[x]
		if !ok {
			return nil, fmt.Errorf("core: clone mapping misses node %s", x.Path())
		}
		return c, nil
	}
	croot, err := remap(n.root)
	if err != nil {
		return nil, err
	}
	c := &Numbering{
		doc:        doc,
		root:       croot,
		opts:       n.opts,
		kappa:      n.kappa,
		localLimit: n.localLimit,
		size:       n.size,
	}
	sorted := make([]*area, 0, n.AreaCount())
	n.forEachArea(func(a *area) {
		ca, rerr := a.withNodes(remap)
		if rerr != nil {
			err = rerr
		}
		sorted = append(sorted, ca)
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(sorted, func(x, y *area) int { return cmp.Compare(x.global, y.global) })
	c.areaIdx = newAreaIndex(sorted)
	c.assertK("CloneFor")
	return c, nil
}

// withNodes returns a copy of the row whose slots hold the images of a's
// nodes under remap; the slots and lower arrays are shared with a.
func (a *area) withNodes(remap func(*xmltree.Node) (*xmltree.Node, error)) (*area, error) {
	na := *a
	na.nodes = make([]*xmltree.Node, len(a.nodes))
	for i, x := range a.nodes {
		var err error
		if na.nodes[i], err = remap(x); err != nil {
			return nil, err
		}
	}
	na.root = na.nodes[0]
	return &na, nil
}

// CopySet returns the set of master nodes an incremental epoch publication
// must copy for the update described by d: the members of every dirty
// (re-enumerated) area — boundary leaves excluded unless their K row
// moved, since a moved row changes the leaf's identifier and its epoch
// copy needs a fresh stamp — plus the spine of ancestors from each dirty
// area root up to and including the document node, whose child lists must
// be re-pointed. Attributes of copied elements are copied implicitly by
// xmltree.CloneAlong and need not appear in the set.
func (n *Numbering) CopySet(d *Delta) map[*xmltree.Node]bool {
	moved := make(map[int64]bool, len(d.RowMoved))
	for _, g := range d.RowMoved {
		moved[g] = true
	}
	set := make(map[*xmltree.Node]bool)
	for _, g := range d.Dirty {
		a := n.areas[g]
		if a == nil {
			continue
		}
		for i, x := range a.nodes {
			if g := a.lower[i]; g == 0 || moved[g] {
				set[x] = true
			}
		}
		for p := a.root.Parent; p != nil; p = p.Parent {
			set[p] = true
		}
	}
	return set
}

// CloneDelta builds the next epoch's numbering incrementally: only the
// dirty areas' rows are rebuilt; areas the copied spine crosses get rebound
// copies whose slots point at the fresh nodes; areas whose K row moved get
// patched row copies sharing their slot arrays; every other area struct —
// and every untouched subtree — is shared with the previous epoch
// outright. A published row's arrays are never written: a rebound row gets
// its own nodes array first.
//
// The receiver is the master numbering after a successful update, d its
// Delta, prev the previous epoch's numbering (epoch mode), copies the
// master→fresh map returned by xmltree.CloneAlong, and shared the
// master→previous-epoch map for everything else. Fresh nodes were copied
// after the update, so they already carry the master's current stamps.
func (n *Numbering) CloneDelta(prev *Numbering, d *Delta, copies, shared map[*xmltree.Node]*xmltree.Node) (*Numbering, error) {
	if !prev.epochMode() {
		return nil, fmt.Errorf("core: CloneDelta requires an epoch-mode previous numbering")
	}
	if n.epochMode() {
		return nil, ErrImmutable
	}
	mapNode := func(x *xmltree.Node) (*xmltree.Node, error) {
		if c, ok := copies[x]; ok {
			return c, nil
		}
		if s, ok := shared[x]; ok {
			return s, nil
		}
		return nil, fmt.Errorf("core: epoch mapping misses node %s", x.Path())
	}
	cdoc, err := mapNode(n.doc)
	if err != nil {
		return nil, err
	}
	croot, err := mapNode(n.root)
	if err != nil {
		return nil, err
	}
	c := &Numbering{
		doc:        cdoc,
		root:       croot,
		opts:       n.opts,
		kappa:      n.kappa,
		localLimit: n.localLimit,
	}

	dirty := make(map[int64]bool, len(d.Dirty))
	patched := make(map[int64]*area) // next-epoch replacements by global index
	owned := make(map[int64]bool)    // patched areas whose nodes array is private (writable)

	// Dirty areas: take the master's post-update row, re-pointed at the next
	// epoch's nodes.
	for _, g := range d.Dirty {
		dirty[g] = true
		ma := n.areas[g]
		if ma == nil {
			return nil, fmt.Errorf("core: delta names unknown area %d", g)
		}
		if patched[g], err = ma.withNodes(mapNode); err != nil {
			return nil, err
		}
		owned[g] = true
	}

	// Row-moved child areas: same interior, new root slot. Start from a
	// shallow copy sharing the previous epoch's arrays; the rebind pass below
	// splits nodes off copy-on-write before its first write.
	for _, g := range d.RowMoved {
		if dirty[g] || patched[g] != nil {
			continue
		}
		pa, ok := prev.krow(g)
		if !ok {
			return nil, fmt.Errorf("core: previous epoch misses area %d", g)
		}
		ma := n.areas[g]
		if ma == nil {
			return nil, fmt.Errorf("core: delta names unknown area %d", g)
		}
		na := *pa
		na.rootLocal = ma.rootLocal
		patched[g] = &na
	}

	// rebind points the slot of area g's next-epoch row that holds local
	// index slot at the fresh node xc, copying the row — and splitting its
	// nodes array off the previous epoch's — before the first write.
	rebind := func(g, slot int64, xc *xmltree.Node) error {
		a, ok := patched[g]
		if !ok {
			pa, found := prev.krow(g)
			if !found {
				return fmt.Errorf("core: previous epoch misses area %d", g)
			}
			na := *pa
			a = &na
			patched[g] = a
		}
		if !owned[g] {
			a.nodes = slices.Clone(a.nodes)
			owned[g] = true
		}
		i, ok := a.position(slot)
		if !ok {
			return fmt.Errorf("core: area %d of the previous epoch has no slot %d", g, slot)
		}
		if a.nodes[i] = xc; i == 0 {
			a.root = xc
		}
		return nil
	}

	// Re-point at each fresh copy every slot that references the copied
	// node from an area that was not rebuilt above.
	for xm, xc := range copies {
		id, ok := n.RUID(xm)
		if !ok {
			continue // document node, or attributes outside the numbering
		}
		g, slot := id.Global, id.Local
		if id.Root {
			// An area root sits in slot 1 of its own row and in its boundary
			// slot of the row above.
			if !dirty[g] {
				if err := rebind(g, 1, xc); err != nil {
					return nil, err
				}
			}
			if g = n.areas[g].parentGlobal; g == 0 {
				continue
			}
		}
		if !dirty[g] {
			if err := rebind(g, slot, xc); err != nil {
				return nil, err
			}
		}
	}

	// Merge into the chunked area index. Updates never create areas outside
	// renumberAll (which publishes via the full CloneFor path), so the
	// global-index set can only shrink here. withPatches shares every chunk
	// holding no patched or deleted row with the previous epoch, so this
	// step is proportional to the number of TOUCHED areas plus the chunk
	// directory — not the total area count.
	idx, err := prev.areaIdx.withPatches(patched, d.DeletedAreas)
	if err != nil {
		return nil, err
	}
	c.areaIdx = idx
	c.size = n.size
	c.assertK("CloneDelta")
	return c, nil
}
