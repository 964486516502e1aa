package core

import (
	"fmt"
	"os"
	"slices"
)

// The binding between nodes and identifiers is held twice over on purpose —
// the stamp in the node and the slot in table K — and nothing else. Every
// lookup trusts the two to agree, so a disagreement would surface as a wrong
// answer far from its cause; the debug check below turns it into a loud
// failure at the operation that broke it.

// debugChecks gates the O(n) table-K verification after Build, Load, every
// update and rollback, CloneFor and CloneDelta. Seeded from RUID_DEBUG like
// the index, query and pager checks.
var debugChecks = os.Getenv("RUID_DEBUG") != ""

// checkK verifies table K against the stamps: every occupied slot's node
// carries the identifier that slot implies, every area root sits in slot 1
// of its own row and in the boundary slot of the upper row its rootLocal
// names, every slot list is sorted and complete, and the slots hold exactly
// Size nodes.
func (n *Numbering) checkK() error {
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	size := 0
	n.forEachArea(func(a *area) {
		if a.locals[1] != a.root {
			fail("area %d: slot 1 does not hold the area root", a.global)
		}
		if a.global != 1 {
			up, ok := n.krow(a.parentGlobal)
			if !ok || up.locals[a.rootLocal] != a.root || up.rootByLocal[a.rootLocal] != a.global {
				fail("area %d: root not at boundary slot %d of area %d", a.global, a.rootLocal, a.parentGlobal)
			}
		}
		for slot, x := range a.locals {
			if want := a.resolveLocal(slot); x.Num != want.stamp() {
				fail("area %d slot %d: node %s carries %+v, slot implies %v", a.global, slot, x.Path(), x.Num, want)
			}
		}
		for slot, g := range a.rootByLocal {
			if _, ok := n.krow(g); !ok || a.locals[slot] == nil {
				fail("area %d: boundary slot %d names missing area %d", a.global, slot, g)
			}
		}
		if len(a.sortedLocals) != len(a.locals) || !slices.IsSorted(a.sortedLocals) {
			fail("area %d: slot list has %d entries for %d slots, or is unsorted", a.global, len(a.sortedLocals), len(a.locals))
		}
		for _, slot := range a.sortedLocals {
			if a.locals[slot] == nil {
				fail("area %d: slot list names empty slot %d", a.global, slot)
			}
		}
		size += len(a.locals) - len(a.rootByLocal)
	})
	if err == nil && size != n.size {
		fail("slots hold %d nodes, Size is %d", size, n.size)
	}
	return err
}

// assertK panics on a table-K violation when debug checks are on.
func (n *Numbering) assertK(op string) {
	if !debugChecks {
		return
	}
	if err := n.checkK(); err != nil {
		panic(fmt.Sprintf("core: %s broke the table-K invariant: %v", op, err))
	}
}
