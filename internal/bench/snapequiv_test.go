package bench

import (
	"testing"
	"time"

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

// snapEquivCell runs one scenario with the given cluster source and
// returns its replay digest.
func snapEquivCell(t *testing.T, plan fault.Plan, reliable bool,
	scenario func(r *run) error, provide func(cluster.Config) *cluster.Cluster) uint64 {
	t.Helper()
	r := &run{mod: func(cfg *cluster.Config) {
		p := plan
		cfg.FaultPlan = &p
		cfg.FaultSeed = 1
		cfg.Reliable = reliable
	}, provide: provide, digest: sim.NewDigestTracer()}
	defer r.close()
	if err := scenario(r); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	return r.digest.Sum()
}

// TestSnapshotEquivalenceMatrix is the tentpole invariant, scenario by
// scenario: a restored world must produce a byte-identical replay digest
// to the live world it was cloned from. Every cell runs its scenario once
// on fresh boots and once on snapshot clones and compares digests —
// figure reproductions, SVM, the byte-integrity stream, the serving
// stack, crash recovery and failover, a lossy chaos cell, and a partition
// cell.
func TestSnapshotEquivalenceMatrix(t *testing.T) {
	none := fault.Plan{Name: "none"}
	lossy := StandardChaosPlans()[2] // lossy-link: drop+corrupt+delay+reorder
	crash := fault.Plan{Name: "crash-node2-mid-transfer", Crashes: []fault.Crash{
		{Node: 2, At: 5 * time.Millisecond},
	}}
	cells := []struct {
		name     string
		plan     fault.Plan
		reliable bool
		run      func(r *run) error
	}{
		{"fig3", none, false, scenarioRunner("fig3")},
		{"fig4", none, false, scenarioRunner("fig4")},
		{"fig5", none, false, scenarioRunner("fig5")},
		{"fig7", none, false, scenarioRunner("fig7")},
		{"fig8", none, false, scenarioRunner("fig8")},
		{"ttcp", none, false, scenarioRunner("ttcp")},
		{"svm", none, false, scenarioRunner("svm")},
		{"app", none, false, scenarioRunner("app")},
		{"integrity-lossy", lossy, true, scenarioRunner("integrity")},
		{"fig5-lossy", lossy, true, scenarioRunner("fig5")},
		{"crash-recovery", crash, false, chaosCrashRecovery},
		{"app-failover", fault.Plan{Name: "primary-crash-rejoin"}, false, chaosAppFailover},
		{"partition-minority", fault.Plan{Name: appPartitionCells()[0].name}, false,
			chaosAppPartition(appPartitionCells()[0])},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			fresh := snapEquivCell(t, c.plan, c.reliable, c.run, nil)
			clone := snapEquivCell(t, c.plan, c.reliable, c.run, snapCloneProvider(t))
			if fresh != clone {
				t.Fatalf("digest diverged: fresh %s, snapshot clone %s",
					sim.DigestString(fresh), sim.DigestString(clone))
			}
		})
	}
}
