package bench

import (
	"reflect"
	"testing"
)

// The worker-pool runner's contract is bit-exactness: distributing cells
// over OS threads must change wall-clock time and nothing else. These tests
// run each runner at four workers twice and diff it — results, digests,
// rendered tables, CSVs — against the same runner at one worker.

func TestParallelChaosMatchesSequential(t *testing.T) {
	const seed = 1
	seq := RunChaos(seed, 1)
	for run := 1; run <= 2; run++ {
		par := RunChaos(seed, 4)
		if len(par) != len(seq) {
			t.Fatalf("run %d: parallel produced %d cells, sequential %d", run, len(par), len(seq))
		}
		for i := range seq {
			if !reflect.DeepEqual(par[i], seq[i]) {
				t.Errorf("run %d: cell %d (%s/%s) diverged:\nsequential: %+v\nparallel:   %+v",
					run, i, seq[i].Scenario, seq[i].Plan, seq[i], par[i])
			}
		}
		if got, want := ChaosTable(par), ChaosTable(seq); got != want {
			t.Errorf("run %d: rendered chaos tables differ\nsequential:\n%s\nparallel:\n%s", run, want, got)
		}
	}
}

func TestParallelFiguresMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	const iters = 2
	seq := RunFigures(FigureIDs(), iters, 1)
	for run := 1; run <= 2; run++ {
		par := RunFigures(FigureIDs(), iters, 4)
		if len(par) != len(seq) {
			t.Fatalf("run %d: got %d figures, want %d", run, len(par), len(seq))
		}
		for i := range seq {
			if par[i].ID != seq[i].ID {
				t.Fatalf("run %d: figure %d is %s, want %s (order must be fixed)", run, i, par[i].ID, seq[i].ID)
			}
			if got, want := par[i].CSV(), seq[i].CSV(); got != want {
				t.Errorf("run %d: %s CSV diverged under parallel run\nsequential:\n%s\nparallel:\n%s",
					run, seq[i].ID, want, got)
			}
		}
	}
}
