package xmltree

import "testing"

func TestBalanced(t *testing.T) {
	doc := Balanced(3, 4)
	s := Measure(doc.DocumentElement())
	if s.Nodes != 121 { // (3^5-1)/2
		t.Fatalf("nodes = %d, want 121", s.Nodes)
	}
	if s.MaxFanout != 3 || s.MaxDepth != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLinear(t *testing.T) {
	doc := Linear(10)
	s := Measure(doc.DocumentElement())
	if s.Nodes != 11 || s.MaxDepth != 10 || s.MaxFanout != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSkewed(t *testing.T) {
	doc := Skewed(9, 2, 4)
	s := Measure(doc.DocumentElement())
	if s.MaxFanout != 9 {
		t.Fatalf("maxFanout = %d, want 9", s.MaxFanout)
	}
	if s.MaxDepth < 4 {
		t.Fatalf("maxDepth = %d, want >= 4", s.MaxDepth)
	}
}

func TestRandomDeterministic(t *testing.T) {
	cfg := RandomConfig{Nodes: 200, MaxFanout: 5, DepthBias: 0.3, Seed: 17}
	a := Serialize(Random(cfg))
	b := Serialize(Random(cfg))
	if a != b {
		t.Fatalf("Random is not deterministic for equal configs")
	}
	s := Measure(Random(cfg).DocumentElement())
	if s.Elements != 200 {
		t.Fatalf("elements = %d, want 200", s.Elements)
	}
	if s.MaxFanout > 5 {
		t.Fatalf("maxFanout = %d, want <= 5", s.MaxFanout)
	}
}

func TestCorpusShapes(t *testing.T) {
	dblp := Measure(DBLP(100, 1).DocumentElement())
	if dblp.MaxFanout < 100 {
		t.Errorf("DBLP should be wide: maxFanout = %d", dblp.MaxFanout)
	}
	if dblp.MaxDepth > 3 {
		t.Errorf("DBLP should be shallow: maxDepth = %d", dblp.MaxDepth)
	}

	xm := Measure(XMark(2, 1).DocumentElement())
	if xm.Nodes < 300 {
		t.Errorf("XMark(2) too small: %d nodes", xm.Nodes)
	}
	if xm.MaxDepth < 5 {
		t.Errorf("XMark should nest: maxDepth = %d", xm.MaxDepth)
	}
	if xm.Attributes == 0 {
		t.Errorf("XMark should carry attributes")
	}

	sp := Measure(Shakespeare(3, 4, 5).DocumentElement())
	if sp.MaxDepth != 5 { // PLAY/ACT/SCENE/SPEECH/LINE/text
		t.Errorf("Shakespeare depth = %d, want 5", sp.MaxDepth)
	}

	rec := Measure(Recursive(2, 6).DocumentElement())
	if rec.MaxDepth < 7 {
		t.Errorf("Recursive depth = %d, want >= 7", rec.MaxDepth)
	}
}

func TestPaperFigure1Shape(t *testing.T) {
	doc, labels := PaperFigure1()
	if len(labels) != 8 {
		t.Fatalf("labels = %d, want 8", len(labels))
	}
	if CountNodes(doc.DocumentElement()) != 8 {
		t.Fatalf("nodes = %d, want 8", CountNodes(doc.DocumentElement()))
	}
	// Structure pinned by the published renumbering (see generator docs).
	if labels[8].Parent != labels[3] || labels[9].Parent != labels[3] {
		t.Fatalf("8 and 9 must be children of 3")
	}
	if labels[23].Parent != labels[8] || labels[26].Parent != labels[9] {
		t.Fatalf("23 under 8, 26 under 9")
	}
}

func TestPaperExampleTreeShape(t *testing.T) {
	doc, nodes, roots := PaperExampleTree()
	if len(roots) != 6 {
		t.Fatalf("area roots = %d, want 6", len(roots))
	}
	if CountNodes(doc.DocumentElement()) != 19 {
		t.Fatalf("nodes = %d, want 19", CountNodes(doc.DocumentElement()))
	}
	if nodes["v"].Parent != nodes["s"] {
		t.Fatalf("v must hang under s")
	}
	if got := Measure(doc.DocumentElement()).MaxFanout; got != 4 {
		t.Fatalf("maxFanout = %d, want 4", got)
	}
}

func TestStatsHelpers(t *testing.T) {
	doc := mustParse(t, `<a><b>t</b><b/><c/></a>`)
	root := doc.DocumentElement()
	s := Measure(root)
	if s.Elements != 4 || s.TextNodes != 1 || s.Leaves != 3 || s.MaxFanout != 3 || s.MaxDepth != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgFanout() != 2 {
		t.Fatalf("AvgFanout = %v, want 2", s.AvgFanout())
	}
	if s.String() == "" {
		t.Fatalf("render helper empty")
	}
}
