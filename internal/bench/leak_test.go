package bench

import (
	"runtime"
	"testing"

	"shrimp/internal/trace"
)

// TestDriversShutDownTheirWorlds: every driver owns the clusters it builds
// through a run context and shuts them down before it returns, so running
// the paper's drivers back to back leaves no parked proc (each one a
// coroutine with its own goroutine) and no world's heap behind.
func TestDriversShutDownTheirWorlds(t *testing.T) {
	const heapSlack = 8 << 20
	live := func() (int, uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return runtime.NumGoroutine(), ms.HeapAlloc
	}
	baseG, baseHeap := live()
	steps := []struct {
		name string
		run  func() error
	}{
		{"fig3", func() error { Fig3(1); return nil }},
		{"fig4", func() error { Fig4(1); return nil }},
		{"fig5", func() error { Fig5(1); return nil }},
		{"fig7", func() error { Fig7(1); return nil }},
		{"fig8", func() error { Fig8(1); return nil }},
		{"peak", func() error { RunPeak(); return nil }},
		{"ttcp", func() error { RunTTCP(); return nil }},
		{"trace-svm", func() error { _, err := TraceFigure("svm", trace.New()); return err }},
		{"chaos-svm", func() error {
			// The svm cell builds two clusters: the Jacobi world and the
			// lock-counter world.
			res := chaosCell{"svm", StandardChaosPlans()[1], true, scenarioRunner("svm")}.result(1)
			if !res.OK() {
				t.Errorf("chaos cell failed: %+v", res)
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		g, heap := live()
		if g > baseG {
			t.Errorf("after %s: %d goroutines, baseline %d", s.name, g, baseG)
		}
		if heap > baseHeap+heapSlack {
			t.Errorf("after %s: live heap %.1f MB, baseline %.1f MB",
				s.name, float64(heap)/(1<<20), float64(baseHeap)/(1<<20))
		}
		t.Logf("after %s: %d goroutines, live heap %.1f MB", s.name, g, float64(heap)/(1<<20))
	}
}
