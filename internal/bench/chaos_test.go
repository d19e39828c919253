package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/fault"
	"shrimp/internal/sim"
)

// Chaos cells the soak matrix does not hold, each checked on its own: a
// denser lossy plan with the sublayer on, a NIC storm inside the data
// phase, and the crash-recovery acceptance scenario. The full matrix is
// `-fig faults`, a golden row.

func TestChaosIntegrityLossy(t *testing.T) {
	plan := fault.Plan{Name: "lossy", Link: fault.LinkFaults{
		DropProb: 0.005, CorruptProb: 0.005, ReorderProb: 0.005,
	}}
	if res := (chaosCell{scenarioRow(t, "integrity"), plan}).result(1); !res.OK() || res.Injected == 0 {
		t.Fatalf("cell failed or injected nothing: %+v", res)
	}
}

// TestChaosNICStorm freezes the receiver's NIC three times inside the
// integrity stream, whose mesh packets run from 2,175 us to about 5,250 us
// of virtual time. The stream must still arrive intact, and the storm must
// have changed the run: a storm outside the data phase leaves the output
// hash (description and Chrome trace) of the unfaulted row.
func TestChaosNICStorm(t *testing.T) {
	integrity := scenarioRow(t, "integrity")
	plan := fault.Plan{Name: "storm", NIC: []fault.NICFault{
		{Node: 1, Kind: fault.FreezeStorm, At: 2500 * time.Microsecond, Count: 3, Gap: 15 * time.Microsecond},
	}}
	if res := (chaosCell{integrity, plan}).result(1); !res.OK() || res.Injected == 0 {
		t.Fatalf("cell failed or injected nothing: %+v", res)
	}
	stormed, err1 := manifestLine(namedCell{"storm", chaosCell{integrity, plan}})
	quiet, err2 := manifestLine(namedCell{"quiet", chaosCell{integrity, fault.Plan{Name: "none"}}})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if strings.Fields(stormed)[4] == strings.Fields(quiet)[4] {
		t.Fatal("the storm left the stream's output hash unchanged")
	}
}

func TestChaosCrashRecovery(t *testing.T) {
	plan := fault.Plan{Name: "crash", Crashes: []fault.Crash{
		{Node: 2, At: 5 * time.Millisecond},
	}}
	res := chaosCell{scenarioRow(t, "crash-recovery"), plan}.result(1)
	if !res.OK() {
		t.Fatalf("cell failed: %+v", res)
	}
}

// TestChaosBlockedInFirstCluster: the parked-proc check covers every
// cluster a cell builds, not only the last one. A proc left parked in the
// first of two worlds must fail the cell.
func TestChaosBlockedInFirstCluster(t *testing.T) {
	twoWorlds := scenario{name: "two-worlds", run: func(r *run) (string, error) {
		first := r.cluster(cluster.Config{})
		never := sim.NewCond(first.Eng)
		first.Eng.Spawn("stuck", func(p *sim.Proc) { never.Wait(p) })
		first.Run()
		r.cluster(cluster.Config{}).Run()
		return "", nil
	}}
	cell := chaosCell{twoWorlds, fault.Plan{Name: "none"}}
	res := cell.result(1)
	if res.OK() || !reflect.DeepEqual(res.Blocked, []string{"stuck"}) {
		t.Fatalf("parked proc in the first cluster went unreported: %+v", res)
	}
}

// TestChaosPlansWellFormed keeps the standard plan list honest: every plan
// named, and link-fault plans distinguishable from scheduled-fault plans
// (underPlan keys the Reliable choice off that).
func TestChaosPlansWellFormed(t *testing.T) {
	plans := StandardChaosPlans()
	if len(plans) < 3 {
		t.Fatalf("only %d standard plans", len(plans))
	}
	seen := map[string]bool{}
	for _, p := range plans {
		if p.Name == "" {
			t.Fatalf("unnamed plan: %v", p)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate plan name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

// TestChaosPartitionCell runs the isolated-primary partition cell through
// the same harness the soak matrix uses: sever mid-load, quorum-gated
// detection, epoch-fenced promotion, heal, handback — twice, under the
// replay digest.
func TestChaosPartitionCell(t *testing.T) {
	s := scenarioRow(t, "part-primary")
	res := chaosCell{s, *s.plan}.result(1)
	if !res.OK() {
		t.Fatalf("cell failed: %+v", res)
	}
}

// TestPartitionCellsTightCallDeadline reruns every partition cell with the
// serving call deadline, the failover detection signal, tightened from its
// 5 ms default to 3 ms. The cells must still detect, fence, heal, and lose
// nothing.
func TestPartitionCellsTightCallDeadline(t *testing.T) {
	for _, c := range appPartitionCells() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			opts := appPartitionOpts(c)
			opts.appCfg.CallDeadline = 3 * time.Millisecond
			r := &run{mod: func(cfg *cluster.Config) {
				cfg.FaultPlan = &fault.Plan{Name: c.name}
				cfg.FaultSeed = 1
			}}
			defer r.close()
			if err := appServe(r, opts, nil); err != nil {
				t.Fatalf("%s under a tight call deadline: %v", c.name, err)
			}
		})
	}
}
