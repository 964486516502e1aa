package document_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/nestedint"
	"repro/internal/scheme"
	"repro/internal/uid"
	"repro/internal/xmltree"
)

// TestOverflowSentinelShared: the three schemes that can run out of int64
// report it with one sentinel, so a caller holding any of the names matches
// an overflow from any scheme.
func TestOverflowSentinelShared(t *testing.T) {
	_, uidErr := uid.Build64(xmltree.Linear(80), 3)
	_, nestedErr := nestedint.Build(xmltree.Linear(150))
	wide, err := xmltree.ParseString("<a><b/><c/></a>")
	if err != nil {
		t.Fatal(err)
	}
	_, coreErr := core.Build(wide, core.Options{Partition: core.PartitionConfig{MaxLocalBits: 1}})
	for name, err := range map[string]error{"uid": uidErr, "nestedint": nestedErr, "core": coreErr} {
		for as, sentinel := range map[string]error{
			"scheme": scheme.ErrOverflow, "core": core.ErrOverflow, "uid": uid.ErrOverflow, "nestedint": nestedint.ErrOverflow,
		} {
			if !errors.Is(err, sentinel) {
				t.Errorf("%s overflow %v does not match %s.ErrOverflow", name, err, as)
			}
		}
		if err == scheme.ErrOverflow {
			t.Errorf("%s returns the sentinel bare; it is to be wrapped with what overflowed", name)
		}
	}
}
