package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/scheme/schemetest"
	"repro/internal/xmltree"
)

// TestConformanceAuto runs the shared scheme conformance suite over the
// standard corpus with the automatic partitioner at several area budgets.
func TestConformanceAuto(t *testing.T) {
	for _, budget := range []int{4, 16, 64, 1 << 20} {
		budget := budget
		t.Run(sizeName(budget), func(t *testing.T) {
			schemetest.Run(t, func(t *testing.T, doc *xmltree.Node) scheme.Scheme {
				n, err := core.Build(doc, core.Options{
					Partition: core.PartitionConfig{MaxAreaNodes: budget, AdjustFanout: true},
				})
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				return scheme.RUID{Num: n}
			})
		})
	}
}

func sizeName(b int) string {
	switch b {
	case 1 << 20:
		return "budget-unbounded"
	default:
		return "budget-" + itoa(b)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestConformanceDepthLimited exercises the depth-driven partitioner.
func TestConformanceDepthLimited(t *testing.T) {
	schemetest.Run(t, func(t *testing.T, doc *xmltree.Node) scheme.Scheme {
		n, err := core.Build(doc, core.Options{
			Partition: core.PartitionConfig{MaxAreaNodes: 1 << 20, MaxAreaDepth: 2, AdjustFanout: true},
		})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return scheme.RUID{Num: n}
	})
}

// TestUpdateSoakShared runs the shared randomized update soak against the
// ruid at several budgets and seeds.
func TestUpdateSoakShared(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(itoa(int(seed)), func(t *testing.T) {
			schemetest.RunUpdateSoak(t, func(t *testing.T, doc *xmltree.Node) scheme.Updatable {
				n, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{
					MaxAreaNodes: 8 << seed, AdjustFanout: true,
				}})
				if err != nil {
					t.Fatal(err)
				}
				return scheme.RUID{Num: n}
			}, 40, seed)
		})
	}
}
