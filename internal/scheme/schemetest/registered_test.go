package schemetest_test

import (
	"testing"

	"repro/internal/scheme"
	"repro/internal/scheme/schemetest"
	"repro/internal/xmltree"

	// Pull every scheme implementation into the registry.
	_ "repro/internal/ancestry"
	_ "repro/internal/nestedint"
	_ "repro/internal/prepost"
	_ "repro/internal/uid"
)

// generators are the three bake-off tree families plus randomized trees for
// the Key-ordering contract.
func generators() map[string]*xmltree.Node {
	return map[string]*xmltree.Node{
		"skewed":    xmltree.Skewed(9, 2, 8),
		"recursive": xmltree.Recursive(2, 6),
		"xmark":     xmltree.XMark(1, 7),
		"random300": xmltree.Random(xmltree.RandomConfig{Nodes: 300, MaxFanout: 5, DepthBias: 0.4, Seed: 9}),
		"random700": xmltree.Random(xmltree.RandomConfig{Nodes: 700, MaxFanout: 9, DepthBias: 0.25, Seed: 23}),
	}
}

// TestRegisteredSchemes is the registry-wide conformance matrix CI runs:
// every registered scheme × every generator family, through the same checks
// as the per-scheme suites (identity, parent, ancestry, order, key order
// for OrderedKeys schemes, axes where implemented).
func TestRegisteredSchemes(t *testing.T) {
	names := scheme.Names()
	if len(names) < 6 {
		t.Fatalf("expected at least 6 registered schemes, have %v", names)
	}
	for _, name := range names {
		reg, ok := scheme.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed after Names listed it", name)
		}
		t.Run(name, func(t *testing.T) {
			for gname, doc := range generators() {
				t.Run(gname, func(t *testing.T) {
					s, err := reg.Build(doc)
					if err != nil {
						t.Fatalf("Build(%s): %v", name, err)
					}
					schemetest.RunOn(t, s, doc)
				})
			}
		})
	}
}

// TestCapabilitiesMatchImplementation guards the registry metadata, the
// only source of a scheme's capabilities: a scheme claims Axes or Update
// exactly when it implements the interface.
func TestCapabilitiesMatchImplementation(t *testing.T) {
	doc := xmltree.Recursive(2, 4)
	for _, name := range scheme.Names() {
		reg, _ := scheme.Lookup(name)
		s, err := reg.Build(doc)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		_, hasAxes := s.(scheme.AxisScheme)
		if reg.Caps.Axes != hasAxes {
			t.Errorf("%s: Caps.Axes=%v but AxisScheme=%v", name, reg.Caps.Axes, hasAxes)
		}
		_, hasUpd := s.(scheme.Updatable)
		if reg.Caps.Update != hasUpd {
			t.Errorf("%s: Caps.Update=%v but Updatable=%v", name, reg.Caps.Update, hasUpd)
		}
		_, hasDepth := s.(scheme.Depther)
		if reg.Caps.Depth && !hasDepth {
			t.Errorf("%s: Caps.Depth=true but no Depther", name)
		}
		if reg.Caps.ComputedParent && !reg.Caps.Axes {
			t.Errorf("%s: ComputedParent without Axes is unused by the planner", name)
		}
	}
}
