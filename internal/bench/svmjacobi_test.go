package bench

import (
	"math"
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/fault"
	"shrimp/internal/sim"
)

// TestSVMJacobiMatchesNX is the acceptance bar for the SVM benchmark: the
// shared-memory run and the message-passing run compute bit-identical
// vectors, both equal to the sequential reference.
func TestSVMJacobiMatchesNX(t *testing.T) {
	const cells, sweeps = 64, 25
	ref := JacobiReference(cells, sweeps)
	for _, nodes := range []int{2, 4, 8} {
		nxr := NXJacobi(nodes, cells, sweeps)
		svr := SVMJacobi(nodes, cells, sweeps)
		if !vectorsEqual(nxr.Final, ref) {
			t.Errorf("%d nodes: NX diverged from sequential reference", nodes)
		}
		if !vectorsEqual(svr.Final, ref) {
			t.Errorf("%d nodes: SVM diverged from sequential reference", nodes)
		}
		if !vectorsEqual(svr.Final, nxr.Final) {
			t.Errorf("%d nodes: SVM and NX vectors differ", nodes)
		}
		if svr.Fetches == 0 || svr.Faults == 0 {
			t.Errorf("%d nodes: SVM run took no faults/fetches (%+v) — protection not engaged", nodes, svr)
		}
		if svr.PerSweepUS <= nxr.PerSweepUS {
			t.Errorf("%d nodes: SVM (%.1f us/sweep) not slower than NX (%.1f) — coherence costs not charged",
				nodes, svr.PerSweepUS, nxr.PerSweepUS)
		}
	}
}

// TestSVMJacobiDeterminism: the whole benchmark scenario is digest-stable.
func TestSVMJacobiDeterminism(t *testing.T) {
	sim.CheckDeterminism(t, func() {
		SVMJacobi(4, 64, 12)
	})
}

// TestSVMJacobiUnderDrops: the benchmark terminates with correct results on
// a 0.1%-drop fabric with the retransmission sublayer enabled.
func TestSVMJacobiUnderDrops(t *testing.T) {
	const cells, sweeps = 64, 40
	plan := fault.Plan{Name: "drop-0.1%", Link: fault.LinkFaults{DropProb: 0.001}}
	r := &run{mod: func(cfg *cluster.Config) {
		cfg.FaultPlan = &plan
		cfg.FaultSeed = 11
		cfg.Reliable = true
	}}
	defer r.close()
	res := svmJacobi(r, 4, cells, sweeps)
	if !vectorsEqual(res.Final, JacobiReference(cells, sweeps)) {
		t.Error("SVM result wrong under lossy links")
	}
	if link, _ := r.injected(); link == 0 {
		t.Error("fault plan injected nothing; test proved nothing")
	}
}

// TestSVMChaosScenario runs the soak cell directly under each standard plan
// (the full matrix is `-fig faults`, a golden row; this keeps the svm cell's
// verdict in the package's own tests).
func TestSVMChaosScenario(t *testing.T) {
	for _, plan := range StandardChaosPlans() {
		res := chaosCell{scenarioRow(t, "svm"), plan}.result(3)
		if !res.OK() {
			t.Errorf("svm under %s: %s", plan.Name, res.Detail)
		}
	}
}

// TestJacobiComparePerSweep sanity-checks the table the CLI and
// EXPERIMENTS.md use.
func TestJacobiComparePerSweep(t *testing.T) {
	rows := JacobiCompare(64, 20, []int{2, 4})
	for _, r := range rows {
		if !r.Match {
			t.Errorf("%d nodes: vectors differ", r.Nodes)
		}
		if math.IsNaN(r.Ratio) || r.Ratio <= 1 {
			t.Errorf("%d nodes: implausible SVM/NX ratio %.2f", r.Nodes, r.Ratio)
		}
	}
}
