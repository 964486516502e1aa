package core

import (
	"fmt"
	"os"

	"repro/internal/xmltree"
)

// The binding between nodes and identifiers is held twice over on purpose —
// the stamp in the node and the slot in table K — and nothing else. Every
// lookup trusts the two to agree, so a disagreement would surface as a wrong
// answer far from its cause; the debug check below turns it into a loud
// failure at the operation that broke it.

// debugChecks gates the O(n) table-K verification after Build, Load,
// CloneFor and every update, and of an epoch once its successor is published
// (AssertK). Seeded from RUID_DEBUG like the index and query checks.
var debugChecks = os.Getenv("RUID_DEBUG") != ""

// checkK verifies table K against the stamps: the rows come in ascending
// global order, every row's slot arrays are parallel, strictly ascending and
// start at slot 1 with the area root, every occupied slot's node carries the
// identifier that slot implies and keeps its attributes in front of its
// children (attrPrefix), a boundary slot names the lower row whose root it
// holds and whose rootLocal it is, and the slots hold exactly Size nodes.
func (n *Numbering) checkK() error {
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	size, last := 0, int64(0)
	n.forEachArea(func(a *area) {
		if a.global <= last {
			fail("area %d follows area %d", a.global, last)
		}
		last = a.global
		if a.nodes.Len() != len(a.slots) || len(a.lower) != len(a.slots) {
			fail("area %d: %d slots, %d nodes, %d lower entries", a.global, len(a.slots), a.nodes.Len(), len(a.lower))
			return
		}
		if len(a.slots) == 0 || a.slots[0] != 1 || a.nodes.At(0) != a.root || a.lower[0] != 0 {
			fail("area %d: slot 1 does not hold the area root", a.global)
			return
		}
		for i, slot := range a.slots {
			x := a.nodes.At(i)
			if i > 0 && slot <= a.slots[i-1] {
				fail("area %d: slot %d follows slot %d", a.global, slot, a.slots[i-1])
			}
			if x == nil {
				fail("area %d: slot %d holds no node", a.global, slot)
				return
			}
			if want := a.resolveLocal(i); stampOf(x) != want {
				fail("area %d slot %d: node %s carries %v, slot implies %v", a.global, slot, x.Path(), stampOf(x), want)
			}
			if j := attrPrefix(x); j >= 0 {
				fail("area %d slot %d: entry %d of %s breaks its attribute prefix of %d", a.global, slot, j, x.Path(), x.NumAttrs())
			}
			if g := a.lower[i]; g != 0 {
				if low, ok := n.krow(g); !ok || low.root != x || low.rootLocal != slot || low.parentGlobal != a.global {
					fail("area %d: boundary slot %d does not hold the root of area %d", a.global, slot, g)
				}
				continue
			}
			size++
		}
		if a.global != 1 {
			up, ok := n.krow(a.parentGlobal)
			if !ok {
				fail("area %d: no upper area %d", a.global, a.parentGlobal)
			} else if i, ok := up.position(a.rootLocal); !ok || up.lower[i] != a.global {
				fail("area %d: root not at boundary slot %d of area %d", a.global, a.rootLocal, a.parentGlobal)
			}
		}
	})
	if err == nil && size != n.size {
		fail("slots hold %d nodes, Size is %d", size, n.size)
	}
	return err
}

// attrPrefix returns the first entry of x's sequence that breaks the
// attribute prefix — an attribute behind the first NumAttrs entries, or
// another kind among them — and -1 when none does. Slot arithmetic under
// WithAttrs and the fork's ownAt both read the sequence as that prefix.
func attrPrefix(x *xmltree.Node) int {
	s, k := x.Seq(), x.NumAttrs()
	for j := 0; j < s.Len(); j++ {
		if (s.At(j).Kind == xmltree.Attribute) != (j < k) {
			return j
		}
	}
	if s.Len() < k {
		return s.Len()
	}
	return -1
}

// AssertK panics on a table-K violation when debug checks are on; op names
// what has just happened to the numbering, or around it.
func (n *Numbering) AssertK(op string) {
	if !debugChecks {
		return
	}
	if err := n.checkK(); err != nil {
		panic(fmt.Sprintf("core: %s broke the table-K invariant: %v", op, err))
	}
}
