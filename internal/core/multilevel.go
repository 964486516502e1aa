package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/xmltree"
)

// Multilevel ruid (§2.4, Definition 4). The frame of a 2-level ruid is
// itself a tree; when it grows too large (or its global indices too big),
// it is treated as a source tree of its own and partitioned again, giving a
// 3-level ruid, and so on: "the process stops when the top level becomes
// small enough to be stored. In practice, this requires only a few levels
// to encode a large XML tree."
//
// The l-level identifier of a node is {θ, (α_{l−1}, β_{l−1}), …, (α₁, β₁)}:
// θ is the original UID in the top level and each (α_j, β_j) is the local
// index and root indicator of the node's area chain at level j+1
// (Definition 4). Example 3: a node with 2-level identifier {8, (a, true)}
// becomes {2, (4, false), (a, true)} at 3 levels when the frame node with
// global index 8 receives the 2-level identifier (2, 4, false) in the
// frame's own numbering.

// Comp is one (α, β) component of a multilevel identifier.
type Comp struct {
	Alpha int64
	Root  bool
}

// MLID is a multilevel ruid. Comps[0] belongs to the highest decomposed
// level (l−1) and the final element to level 1 (the node's own area slot).
type MLID struct {
	Theta int64
	Comps []Comp
}

// Levels returns l, the number of levels of the identifier (a plain
// 2-level ruid has two).
func (m MLID) Levels() int { return len(m.Comps) + 1 }

// String renders the identifier the way the paper writes it, e.g.
// "{2, (4, false), (9, true)}".
func (m MLID) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "{%d", m.Theta)
	for _, c := range m.Comps {
		fmt.Fprintf(&b, ", (%d, %v)", c.Alpha, c.Root)
	}
	b.WriteByte('}')
	return b.String()
}

// Key returns a unique byte encoding of the identifier: big-endian θ
// followed by the 9-byte encodings of the components.
func (m MLID) Key() []byte {
	b := make([]byte, 8+9*len(m.Comps))
	binary.BigEndian.PutUint64(b[:8], uint64(m.Theta))
	off := 8
	for _, c := range m.Comps {
		binary.BigEndian.PutUint64(b[off:off+8], uint64(c.Alpha))
		if c.Root {
			b[off+8] = 1
		}
		off += 9
	}
	return b
}

// MLOptions configure BuildMultilevel.
type MLOptions struct {
	// Base configures the level-1 numbering over the document.
	Base Options
	// FramePartition configures the partitioning of each frame level.
	// Zero values fall back to the Base partition configuration.
	FramePartition PartitionConfig
	// MaxTopAreas keeps adding levels until the top frame has at most this
	// many areas. Zero means DefaultMaxTopAreas.
	MaxTopAreas int
	// MaxLevels caps the number of levels (safety bound; zero means 8).
	MaxLevels int
}

// DefaultMaxTopAreas is the stop condition for level construction: the top
// level is "small enough to be stored" once its area count is below this.
const DefaultMaxTopAreas = 128

// frameLevel is the numbering of one frame: a 2-level ruid over a synthetic
// tree with one node per area of the level below.
type frameLevel struct {
	num     *Numbering
	byTheta map[int64]*xmltree.Node // lower-level global index -> frame node
	thetaOf map[*xmltree.Node]int64 // frame node -> lower-level global index
}

// Multilevel is a multilevel ruid numbering of one document snapshot. The
// base level is an ordinary 2-level Numbering; each additional level
// renumbers the frame of the level below.
type Multilevel struct {
	base   *Numbering
	levels []*frameLevel // levels[0] decomposes the base frame, and so on
}

// BuildMultilevel constructs the multilevel ruid of doc, recursively
// renumbering frames until the top level is small enough.
func BuildMultilevel(doc *xmltree.Node, opts MLOptions) (*Multilevel, error) {
	base, err := Build(doc, opts.Base)
	if err != nil {
		return nil, err
	}
	maxTop := opts.MaxTopAreas
	if maxTop <= 0 {
		maxTop = DefaultMaxTopAreas
	}
	maxLevels := opts.MaxLevels
	if maxLevels <= 0 {
		maxLevels = 8
	}
	framePart := opts.FramePartition
	if framePart.MaxAreaNodes == 0 {
		framePart = opts.Base.Partition
	}
	ml := &Multilevel{base: base}
	cur := base
	for cur.AreaCount() > maxTop && ml.NumLevels() < maxLevels {
		fl, err := buildFrameLevel(cur, framePart)
		if err != nil {
			return nil, err
		}
		ml.levels = append(ml.levels, fl)
		cur = fl.num
	}
	return ml, nil
}

// buildFrameLevel materializes the frame of n as a synthetic tree and
// numbers it with its own 2-level ruid.
func buildFrameLevel(n *Numbering, cfg PartitionConfig) (*frameLevel, error) {
	fl := &frameLevel{
		byTheta: make(map[int64]*xmltree.Node, n.AreaCount()),
		thetaOf: make(map[*xmltree.Node]int64, n.AreaCount()),
	}
	// One synthetic node per area; frame topology from parentGlobal links,
	// children in document order of their area roots — which is ascending
	// global index among the frame children of one area, the order K is
	// visited in.
	kids := make(map[int64][]int64)
	n.forEachArea(func(a *area) {
		if a.global != 1 {
			kids[a.parentGlobal] = append(kids[a.parentGlobal], a.global)
		}
	})
	doc := xmltree.NewDocument()
	var build func(g int64) *xmltree.Node
	build = func(g int64) *xmltree.Node {
		fn := xmltree.NewElement(fmt.Sprintf("area%d", g))
		fl.byTheta[g] = fn
		fl.thetaOf[fn] = g
		for _, cg := range kids[g] {
			fn.AppendChild(build(cg))
		}
		return fn
	}
	doc.AppendChild(build(1))
	num, err := Build(doc, Options{Partition: cfg})
	if err != nil {
		return nil, err
	}
	fl.num = num
	return fl, nil
}

// Base returns the level-1 numbering.
func (m *Multilevel) Base() *Numbering { return m.base }

// NumLevels returns l: 2 for a plain 2-level ruid, plus one per frame
// level.
func (m *Multilevel) NumLevels() int { return 2 + len(m.levels) }

// TopAreaCount returns the number of areas at the top level — the quantity
// the construction drives below MaxTopAreas.
func (m *Multilevel) TopAreaCount() int {
	if len(m.levels) == 0 {
		return m.base.AreaCount()
	}
	return m.levels[len(m.levels)-1].num.AreaCount()
}

// IDOf returns the multilevel identifier of a document node.
func (m *Multilevel) IDOf(node *xmltree.Node) (MLID, bool) {
	id, ok := m.base.RUID(node)
	if !ok {
		return MLID{}, false
	}
	return m.Decompose(id), true
}

// Decompose expands a flat 2-level identifier into its multilevel form by
// recursively replacing the global index with its identifier in the frame
// numbering above (the transformation of Example 3:
// {8, (a, true)} → {2, (4, false), (a, true)}).
func (m *Multilevel) Decompose(id ID) MLID {
	ml := MLID{Theta: id.Global, Comps: []Comp{{Alpha: id.Local, Root: id.Root}}}
	for _, fl := range m.levels {
		fn, ok := fl.byTheta[ml.Theta]
		if !ok {
			break
		}
		fid, ok := fl.num.RUID(fn)
		if !ok {
			break
		}
		ml.Theta = fid.Global
		ml.Comps = append([]Comp{{Alpha: fid.Local, Root: fid.Root}}, ml.Comps...)
	}
	return ml
}

// Compose folds a multilevel identifier back into the flat 2-level form,
// resolving θ through the frame numberings from the top down. It fails for
// identifiers that do not belong to this numbering.
func (m *Multilevel) Compose(ml MLID) (ID, error) {
	if len(ml.Comps) == 0 {
		return ID{}, errors.New("core: multilevel identifier has no components")
	}
	want := len(ml.Comps)
	// The identifier decomposes through the top len(Comps)-1 frame levels.
	if want-1 > len(m.levels) {
		return ID{}, fmt.Errorf("core: identifier has %d levels, numbering has %d",
			ml.Levels(), m.NumLevels())
	}
	theta := ml.Theta
	for i := want - 2; i >= 0; i-- {
		fl := m.levels[i]
		c := ml.Comps[want-2-i]
		fid := ID{Global: theta, Local: c.Alpha, Root: c.Root}
		fn, ok := fl.num.NodeOfID(fid)
		if !ok {
			return ID{}, fmt.Errorf("core: frame level %d has no node %v", i+2, fid)
		}
		theta = fl.thetaOf[fn]
	}
	last := ml.Comps[len(ml.Comps)-1]
	return ID{Global: theta, Local: last.Alpha, Root: last.Root}, nil
}

// Parent computes the multilevel identifier of the parent of ml: the Fig. 6
// algorithm runs on the flat form, whose result is decomposed again. The
// second result is false for the document root.
func (m *Multilevel) Parent(ml MLID) (MLID, bool, error) {
	flat, err := m.Compose(ml)
	if err != nil {
		return MLID{}, false, err
	}
	p, ok, err := m.base.RParent(flat)
	if err != nil || !ok {
		return MLID{}, false, err
	}
	return m.Decompose(p), true, nil
}

// NodeOf resolves a multilevel identifier to its document node.
func (m *Multilevel) NodeOf(ml MLID) (*xmltree.Node, bool) {
	flat, err := m.Compose(ml)
	if err != nil {
		return nil, false
	}
	return m.base.NodeOfID(flat)
}

// Capacity returns the approximate number of enumerable nodes as a power:
// if one level can enumerate e nodes, m levels enumerate about e^m (§3.1:
// "using m-level ruid, we can enumerate approximately e^m nodes"). The
// result is expressed as the exponent m with e = 2^63−1 per level.
func (m *Multilevel) Capacity() (perLevelBits int, levels int) {
	return 63, m.NumLevels() - 1
}

// IsAncestor reports whether anc is a proper ancestor of desc, decided on
// the multilevel identifiers (via their flat forms).
func (m *Multilevel) IsAncestor(anc, desc MLID) bool {
	fa, err := m.Compose(anc)
	if err != nil {
		return false
	}
	fd, err := m.Compose(desc)
	if err != nil {
		return false
	}
	return m.base.IsAncestorID(fa, fd)
}

// CompareOrder compares two multilevel identifiers in document order.
// The paper (§3.5): "the relative position of two nodes can be determined
// by the first different and preceding-following decidable components of
// their multilevel ruid" — equal prefixes are skipped before the flat
// comparison decides.
func (m *Multilevel) CompareOrder(a, b MLID) int {
	fa, errA := m.Compose(a)
	fb, errB := m.Compose(b)
	if errA != nil || errB != nil {
		return 0
	}
	return m.base.CompareOrderID(fa, fb)
}
