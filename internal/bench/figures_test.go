package bench

import (
	"strings"
	"testing"
)

// TestFullFigureGeneration exercises the complete figure builders (the code
// paths cmd/shrimpbench runs), checking structural invariants of the
// resulting tables rather than re-asserting calibration (the per-figure
// shape tests do that).
func TestFullFigureGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	figs := []*Figure{Fig3(2), Fig4(2), Fig5(2), Fig7(2), Fig8(2)}
	wantSeries := map[string]int{"fig3": 4, "fig4": 6, "fig5": 2, "fig7": 3, "fig8": 2}
	for _, f := range figs {
		if len(f.Serie) != wantSeries[f.ID] {
			t.Errorf("%s: %d series, want %d", f.ID, len(f.Serie), wantSeries[f.ID])
		}
		for _, s := range f.Serie {
			if len(s.Points) == 0 {
				t.Errorf("%s/%s: no points", f.ID, s.Label)
			}
			for _, p := range s.Points {
				if p.LatencyUS <= 0 {
					t.Errorf("%s/%s@%d: nonpositive latency %f", f.ID, s.Label, p.Size, p.LatencyUS)
				}
				if p.Size > 0 && f.ID != "fig8" && p.MBPerSec <= 0 {
					t.Errorf("%s/%s@%d: nonpositive bandwidth", f.ID, s.Label, p.Size)
				}
			}
		}
		// Tables and CSV render without panicking and contain each label.
		lt := f.LatencyTable(64)
		bt := f.BandwidthTable(64)
		csv := f.CSV()
		for _, s := range f.Serie {
			if !strings.Contains(lt, s.Label) && !strings.Contains(bt, s.Label) {
				t.Errorf("%s: label %q missing from tables", f.ID, s.Label)
			}
			if !strings.Contains(csv, ","+s.Label+",") {
				t.Errorf("%s: label %q missing from CSV", f.ID, s.Label)
			}
		}
	}
}

// TestSeriesHelpers covers the small accessors.
func TestSeriesHelpers(t *testing.T) {
	s := Series{Label: "x", Points: []Point{{Size: 4, LatencyUS: 1}}}
	if _, ok := s.At(4); !ok {
		t.Error("At(4) missed")
	}
	if _, ok := s.At(8); ok {
		t.Error("At(8) found phantom point")
	}
	f := &Figure{ID: "f", Serie: []Series{s}}
	if f.Get("x") == nil || f.Get("y") != nil {
		t.Error("Get misbehaved")
	}
	if len(AllSizes()) < len(LatencySizes) {
		t.Error("AllSizes lost entries")
	}
	prev := -1
	for _, v := range AllSizes() {
		if v <= prev {
			t.Error("AllSizes not sorted unique")
		}
		prev = v
	}
}

// TestMeasurementDeterminism: identical benchmark invocations must yield
// bit-identical results — the property that makes every number in
// EXPERIMENTS.md exactly reproducible.
func TestMeasurementDeterminism(t *testing.T) {
	l1, b1 := VMMCPingPong(AU1copy, 1024, 5)
	l2, b2 := VMMCPingPong(AU1copy, 1024, 5)
	if l1 != l2 || b1 != b2 {
		t.Fatalf("nondeterministic measurement: (%v,%v) vs (%v,%v)", l1, b1, l2, b2)
	}
	r1 := SRPCNull(256, 4)
	r2 := SRPCNull(256, 4)
	if r1 != r2 {
		t.Fatalf("nondeterministic SRPC measurement: %v vs %v", r1, r2)
	}
}
