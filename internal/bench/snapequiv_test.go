package bench

import (
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/fault"
	"shrimp/internal/sim"
	"shrimp/internal/snap"
)

// snapCloneProvider sources every cluster a scenario asks for through a
// boot → capture → restore round trip: the scenario runs on a snapshot
// clone instead of the freshly booted world, with the scenario's digest
// tracer attached to the clone at boot (RestoreOptions.Auto), exactly
// where the fresh path attaches it (cluster.Config.Auto). Any state the
// snapshot layer loses or invents shows up as a digest mismatch.
func snapCloneProvider(t *testing.T) func(cluster.Config) *cluster.Cluster {
	return func(cfg cluster.Config) *cluster.Cluster {
		t.Helper()
		bootCfg := cfg
		bootCfg.Auto = nil
		bootCfg.Trace = nil
		boot := cluster.New(bootCfg)
		w, err := snap.Capture(boot)
		boot.Shutdown()
		if err != nil {
			t.Fatalf("capture: %v", err)
		}
		c, err := w.RestoreWith(snap.RestoreOptions{
			Auto:      cfg.Auto,
			Trace:     cfg.Trace,
			FaultPlan: cfg.FaultPlan,
		})
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		return c
	}
}

// snapEquivCell runs one cell's scenario under its plan with the given
// cluster source and returns its replay digest.
func snapEquivCell(t *testing.T, c chaosCell, provide func(cluster.Config) *cluster.Cluster) uint64 {
	t.Helper()
	r := &run{mod: underPlan(c.plan, 1), provide: provide, digest: sim.NewDigestTracer()}
	defer r.close()
	if _, err := c.run(r); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	return r.digest.Sum()
}

// TestSnapshotEquivalenceMatrix is the tentpole invariant, scenario by
// scenario: a restored world must produce a byte-identical replay digest
// to the live world it was cloned from. Every cell runs its scenario once
// on fresh boots and once on snapshot clones and compares digests. The
// cells are matrixCells.
func TestSnapshotEquivalenceMatrix(t *testing.T) {
	for _, c := range matrixCells() {
		t.Run(c.name, func(t *testing.T) {
			fresh := snapEquivCell(t, c.chaosCell, nil)
			clone := snapEquivCell(t, c.chaosCell, snapCloneProvider(t))
			if fresh != clone {
				t.Fatalf("digest diverged: fresh %s, snapshot clone %s",
					sim.DigestString(fresh), sim.DigestString(clone))
			}
		})
	}
}

// namedCell is one cell of the equivalence matrix under its unique name.
type namedCell struct {
	name string
	chaosCell
}

// matrixCells is the cell list the snapshot equivalence matrix and the
// determinism manifest share: the whole chaos matrix (every
// scenario-table row under every standard plan, named row-plan, and each
// row with a plan of its own, named by the row) plus every row without a
// plan of its own under the empty plan, named by the row.
func matrixCells() []namedCell {
	var cells []namedCell
	for _, c := range chaosCells() {
		name := c.name
		if c.scenario.plan == nil {
			name += "-" + c.plan.Name
		}
		cells = append(cells, namedCell{name, c})
	}
	for _, s := range scenarios() {
		if s.plan == nil {
			cells = append(cells, namedCell{s.name, chaosCell{s, fault.Plan{Name: "none"}}})
		}
	}
	return cells
}
