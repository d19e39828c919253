package bench

import (
	"testing"

	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// replayCounts is what a cell's run leaves in its replay digest.
type replayCounts struct {
	sum              uint64
	events, switches int64
}

// snapEquivCell runs one cell's scenario under its plan, traced or not,
// and returns its replay digest and engine counts.
func snapEquivCell(t *testing.T, c namedCell, tc *trace.Collector) replayCounts {
	t.Helper()
	_, d, err := runCell(c.chaosCell, tc)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	return replayCounts{d.Sum(), d.Events, d.Switches}
}

// TestSnapshotEquivalenceMatrix checks, cell by cell, that a replay from
// boot can stand in for a snapshot. There is no capture path: the state
// of a run at instant T is reached again by rebuilding the cell's world
// and running it untraced to T, then tracing from there (ROADMAP item 7).
// That is sound only if the untraced replay is the same run as the traced
// one the manifest pins, so every cell runs once with a trace collector
// attached and once without, and the two must agree on replay digest,
// event count and switch count. The cells are matrixCells.
func TestSnapshotEquivalenceMatrix(t *testing.T) {
	for _, c := range matrixCells() {
		t.Run(c.name, func(t *testing.T) {
			traced := snapEquivCell(t, c, trace.New())
			replayed := snapEquivCell(t, c, nil)
			if traced != replayed {
				t.Fatalf("untraced replay diverged: traced digest %s, %d events, %d switches; replay digest %s, %d events, %d switches",
					sim.DigestString(traced.sum), traced.events, traced.switches,
					sim.DigestString(replayed.sum), replayed.events, replayed.switches)
			}
		})
	}
}
