package app

import (
	"testing"

	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// Latency runs once per served op, so an untraced run must not allocate on it.
func TestRecorderLatencyAllocFree(t *testing.T) {
	r := NewRecorder(1, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Latency(ClassGet, sim.Time(12_345))
	})
	if allocs != 0 {
		t.Fatalf("Latency with a nil collector: %v allocs/op, want 0", allocs)
	}
	if n := r.Lat[ClassGet].N; n < 1000 {
		t.Fatalf("histogram saw %d observations, want >= 1000", n)
	}
}

// A traced recorder mirrors each observation into the collector with the
// same fine bucket layout as its own histogram.
func TestRecorderLatencyMirrorsCollector(t *testing.T) {
	tc := trace.New()
	r := NewRecorder(1, tc)
	for _, d := range []sim.Time{100, 5_000, 5_000, 90_000} {
		r.Latency(ClassPutSrv, d)
	}
	h := tc.Hist("app", "lat.put.srv")
	if h == nil {
		t.Fatal("collector has no lat.put.srv histogram")
	}
	if got, want := h.String(), r.Lat[ClassPutSrv].String(); got != want {
		t.Fatalf("collector histogram %s, recorder histogram %s", got, want)
	}
}
