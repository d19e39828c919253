// Worker-pool runner: every figure and chaos cell is an independent,
// self-contained simulation — its own run context, clusters, engines, and
// tracers — so wall-clock throughput scales by running cells on OS threads
// in parallel. Determinism is untouched: each simulation still executes
// single-threaded on its own engine, workers share no simulation state,
// and results land in preassigned slots so output order never depends on
// scheduling. A worker count of one runs the same path in sequence, and
// parallel_test.go diffs the two.
//
// runPool is the one sanctioned island of host concurrency outside
// internal/sim, hence its per-line shrimplint suppressions.
package bench

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// runPool executes job(0..n-1) on up to workers OS threads and waits for
// all of them. Jobs must be independent; they communicate results through
// their preassigned slots, never through shared simulation state.
func runPool(workers, n int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next int64 = -1
	//lint:allow no-stray-concurrency worker-pool join
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow no-stray-concurrency worker-pool scenario runner
		go func() {
			defer wg.Done()
			for {
				//lint:allow no-stray-concurrency atomic job cursor
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// Workers returns the default worker count for parallel runs.
func Workers() int { return runtime.GOMAXPROCS(0) }

// FigureIDs lists the standard figures RunFigures builds, in output order:
// the scenario-table rows that have a figure sweep.
func FigureIDs() []string {
	var ids []string
	for _, s := range scenarios() {
		if s.sweep != nil {
			ids = append(ids, s.name)
		}
	}
	return ids
}

// RunFigures builds the requested standard figures on up to workers OS
// threads (workers <= 1 builds them in sequence). The result follows
// FigureIDs order and skips ids that are not standard figures; every
// table and CSV is byte-identical for any worker count.
func RunFigures(ids []string, iters, workers int) []*Figure {
	var jobs []func(iters int) *Figure
	for _, s := range scenarios() {
		if s.sweep != nil && slices.Contains(ids, s.name) {
			jobs = append(jobs, s.sweep)
		}
	}
	out := make([]*Figure, len(jobs))
	runPool(workers, len(jobs), func(i int) { out[i] = jobs[i](iters) })
	return out
}
