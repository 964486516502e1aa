package workload

import "testing"

// TestE17Shapes gates the out-of-core acceptance bar at a reduced scale:
// ruid navigation issues zero stored reads while both baselines page.
func TestE17Shapes(t *testing.T) {
	s := MeasureOutOfCore(40_000, 600)
	if s.RuidNavReads != 0 {
		t.Errorf("ruid navigation read %d pages, want 0 (Lemma 1)", s.RuidNavReads)
	}
	if s.RuidNavSteps == 0 {
		t.Fatalf("no navigation steps measured")
	}
	if s.PrepostReads < 100 {
		t.Errorf("prepost baseline read only %d pages; pressure test is vacuous", s.PrepostReads)
	}
	if s.UIDReads < 100 {
		t.Errorf("uid baseline read only %d pages; pressure test is vacuous", s.UIDReads)
	}
}
