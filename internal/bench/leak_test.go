package bench

import (
	"runtime"
	"testing"

	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// TestDriversShutDownTheirWorlds: every driver owns the clusters it builds
// through a run context and shuts them down before it returns, so running
// the paper's drivers back to back leaves no parked proc and no world's
// heap behind. Each proc runs on a coroutine with its own goroutine. An
// exited proc's coroutine waits on sim's bounded idle list, bound to no
// world, so the goroutines counted are those beyond that list: a world
// left running keeps its parked procs' coroutines off it.
func TestDriversShutDownTheirWorlds(t *testing.T) {
	const heapSlack = 8 << 20
	live := func() (int, uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return runtime.NumGoroutine() - sim.IdleCoroutines(), ms.HeapAlloc
	}
	baseG, baseHeap := live()
	type step struct {
		name string
		run  func() error
	}
	steps := []step{
		{"peak", func() error { RunPeak(); return nil }},
		{"ttcp-sweep", func() error { RunTTCP(); return nil }},
		{"chaos-svm", func() error {
			// The svm cell builds two clusters: the Jacobi world and the
			// lock-counter world.
			res := chaosCell{scenarioRow(t, "svm"), StandardChaosPlans()[1]}.result(1)
			if !res.OK() {
				t.Errorf("chaos cell failed: %+v", res)
			}
			return nil
		}},
	}
	// Every row of the scenario table, through TraceFigure, and every
	// figure sweep.
	for _, s := range scenarios() {
		if s.sweep != nil {
			steps = append(steps, step{s.name + "-sweep", func() error { s.sweep(1); return nil }})
		}
		steps = append(steps, step{"trace-" + s.name, func() error {
			_, err := TraceFigure(s.name, trace.New())
			return err
		}})
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		g, heap := live()
		if g > baseG {
			t.Errorf("after %s: %d goroutines beyond the idle list, baseline %d", s.name, g, baseG)
		}
		if heap > baseHeap+heapSlack {
			t.Errorf("after %s: live heap %.1f MB, baseline %.1f MB",
				s.name, float64(heap)/(1<<20), float64(baseHeap)/(1<<20))
		}
		t.Logf("after %s: %d goroutines beyond the idle list, live heap %.1f MB", s.name, g, float64(heap)/(1<<20))
	}
}
