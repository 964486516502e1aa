package xmltree

import (
	"math"
	"testing"
)

// chain builds root -> a -> b -> ... as a single path of n elements below
// the returned root element.
func chain(n int) *Node {
	root := NewElement("root")
	cur := root
	for i := 0; i < n; i++ {
		c := NewElement("e")
		cur.AppendChild(c)
		cur = c
	}
	return root
}

func TestStatsDepthHistLinear(t *testing.T) {
	s := Measure(chain(4))
	// One node at each of depths 0..4.
	want := []int{1, 1, 1, 1, 1}
	if len(s.DepthHist) != len(want) {
		t.Fatalf("DepthHist = %v, want %v", s.DepthHist, want)
	}
	for d, c := range want {
		if s.DepthHist[d] != c {
			t.Fatalf("DepthHist[%d] = %d, want %d (hist %v)", d, s.DepthHist[d], c, s.DepthHist)
		}
	}
	if s.TotalDepth != 0+1+2+3+4 {
		t.Fatalf("TotalDepth = %d, want 10", s.TotalDepth)
	}
	if got, want := s.AvgDepth(), 10.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("AvgDepth = %v, want %v", got, want)
	}
}

func TestStatsDepthHistStar(t *testing.T) {
	root := NewElement("root")
	for i := 0; i < 6; i++ {
		root.AppendChild(NewElement("c"))
	}
	s := Measure(root)
	if len(s.DepthHist) != 2 || s.DepthHist[0] != 1 || s.DepthHist[1] != 6 {
		t.Fatalf("DepthHist = %v, want [1 6]", s.DepthHist)
	}
	if got, want := s.AvgDepth(), 6.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("AvgDepth = %v, want %v", got, want)
	}
}

func TestStatsDepthHistMixed(t *testing.T) {
	// root
	//   a
	//     "t"
	//     b
	//       c
	//   d
	root := NewElement("root")
	a := NewElement("a")
	a.AppendChild(NewText("t"))
	b := NewElement("b")
	b.AppendChild(NewElement("c"))
	a.AppendChild(b)
	root.AppendChild(a)
	root.AppendChild(NewElement("d"))
	s := Measure(root)
	want := []int{1, 2, 2, 1}
	if len(s.DepthHist) != len(want) {
		t.Fatalf("DepthHist = %v, want %v", s.DepthHist, want)
	}
	for d := range want {
		if s.DepthHist[d] != want[d] {
			t.Fatalf("DepthHist = %v, want %v", s.DepthHist, want)
		}
	}
	// Histogram must sum to the node count and be consistent with TotalDepth.
	sum, weighted := 0, 0
	for d, c := range s.DepthHist {
		sum += c
		weighted += d * c
	}
	if sum != s.Nodes || weighted != s.TotalDepth {
		t.Fatalf("hist sum=%d nodes=%d weighted=%d totalDepth=%d", sum, s.Nodes, weighted, s.TotalDepth)
	}
}

func TestStatsAvgDepthEmpty(t *testing.T) {
	var s Stats
	if s.AvgDepth() != 0 {
		t.Fatalf("zero Stats AvgDepth should be 0, got %v", s.AvgDepth())
	}
}
