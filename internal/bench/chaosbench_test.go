package bench

import "testing"

// One chaos cell end to end: build a 4-node cluster under the drop-1% plan
// with the reliability sublayer on, run the fig4 representative scenario
// twice under the replay digest, tear it all down. This is the unit the
// soak matrix repeats for every row and plan.
func BenchmarkChaosCell(b *testing.B) {
	plan := StandardChaosPlans()[1] // drop-1%
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := chaosCell{scenarioRow(b, "fig4"), plan}.result(1)
		if !res.OK() || res.Injected == 0 {
			b.Fatalf("chaos cell failed or injected nothing: %+v", res)
		}
	}
}

func BenchmarkChaosSoak(b *testing.B) {
	// The full matrix, one cell after another.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ChaosOK(RunChaos(1)) {
			b.Fatal("chaos soak failed")
		}
	}
}
