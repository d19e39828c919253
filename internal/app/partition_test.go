// Partition-tolerance tests for the serving subsystem: epoch fencing, the
// quorum gate on down-reports, heal-time reconciliation of a deposed
// primary's unreplicated tail, and replay determinism with partitions
// armed — the PR 8 acceptance scenarios at test scale.
package app_test

import (
	"encoding/binary"
	"testing"
	"time"

	"shrimp/internal/app"
	"shrimp/internal/app/loadgen"
	"shrimp/internal/cluster"
	"shrimp/internal/fault"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/srpc"
	"shrimp/internal/vmmc"
)

// partCluster builds a 2x2 cluster with the injector armed (empty plan),
// so the app's down-report quorum gate reads the injector's ground truth.
func partCluster(t *testing.T) (*cluster.Cluster, *app.App) {
	t.Helper()
	cl := cluster.New(cluster.Config{MeshX: 2, MeshY: 2, FaultPlan: &fault.Plan{}})
	a, err := app.Start(cl, app.Config{})
	if err != nil {
		t.Fatalf("app start: %v", err)
	}
	return cl, a
}

// keysInShard returns n distinct keys all hashing to one shard whose
// primary is the given node.
func keysInShard(m *app.ShardMap, primary, n int) (int, []uint64) {
	for s := range m.Shards {
		if m.Shards[s].Primary != primary {
			continue
		}
		var keys []uint64
		for k := uint64(1); len(keys) < n && k < 1<<22; k++ {
			if m.ShardOf(k) == s {
				keys = append(keys, k)
			}
		}
		if len(keys) == n {
			return s, keys
		}
	}
	return -1, nil
}

// callOps sends one batch of ops and returns the per-op statuses and the
// first get value (nil if none). A transport error returns nil statuses.
func callOps(a *app.App, b *srpc.Binding, img []byte) ([]uint32, []byte) {
	rlen, err := b.CallTimeout(app.ProcBatch, img, a.Cfg.CallDeadline)
	if err != nil {
		return nil, nil
	}
	reply := b.ReadReply(nil, rlen)
	if len(reply) < 4 {
		return nil, nil
	}
	cnt := binary.LittleEndian.Uint32(reply)
	rest := reply[4:]
	sts := make([]uint32, 0, cnt)
	var val []byte
	for i := 0; i < int(cnt) && len(rest) >= 4; i++ {
		st := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		sts = append(sts, st)
		if st == app.StatusOK && len(rest) >= 4 {
			// Greedily try to decode a value field; put replies carry none,
			// and this test only sends gets last in a batch.
			if n := int(binary.LittleEndian.Uint32(rest)); 4+(n+3)&^3 <= len(rest) && n > 0 {
				val = rest[4 : 4+n]
				rest = rest[4+(n+3)&^3:]
			}
		}
	}
	return sts, val
}

func putImg(shard int, key uint64, epoch uint32, val []byte) []byte {
	img := binary.LittleEndian.AppendUint32(nil, 1)
	return app.AppendOp(img, app.OpPut, shard, key, epoch, val)
}

func getImg(shard int, key uint64, epoch uint32) []byte {
	img := binary.LittleEndian.AppendUint32(nil, 1)
	return app.AppendOp(img, app.OpGet, shard, key, epoch, nil)
}

// TestPartitionFencing walks the whole fence by hand on a four-node
// cluster. Node 1 leads a shard that node 2 follows; node 1 is cut off
// alone (minority side). Its local client's write cannot be acknowledged
// (replication fails but the quorum vetoes deposing the follower →
// StatusUnavailable); the majority detects the isolation, deposes node 1,
// and mints a new epoch; a write stamped with the old epoch at the new
// primary is fenced off with StatusStaleEpoch; and after the heal the
// deposed side's unreplicated tail reconciles into the new primary
// without clobbering anything the new regime wrote.
func TestPartitionFencing(t *testing.T) {
	cl, a := partCluster(t)
	s, keys := keysInShard(a.Map, 1, 2)
	if s < 0 {
		t.Fatal("no shard led by node 1")
	}
	k1, k2 := keys[0], keys[1]
	v1 := []byte("v1-old-regime-ok")
	v2 := []byte("v2-new-regime-ok")
	w1 := []byte("w1-minority-tail")

	step := 0
	cond := sim.NewCond(cl.Eng)
	advance := func(to int) { step = to; cond.Broadcast() }
	await := func(p *sim.Proc, to int) {
		for step < to {
			cond.Wait(p)
		}
	}
	fail := func(f string, args ...any) {
		t.Errorf(f, args...)
		advance(100)
	}

	var unavailSt, staleSt, okSt []uint32
	cl.Spawn(1, "cli-minority", func(p *kernel.Process) {
		a.WaitReady(p.P)
		b, err := srpc.Bind(vmmc.Attach(p, cl.Node(1).Daemon), cl.Ether, 1, app.Port, 50*time.Millisecond)
		if err != nil {
			fail("minority bind: %v", err)
			return
		}
		await(p.P, 1)
		// The partition is up; this node still believes it is primary.
		// The put applies locally but replication to node 2 is cut, the
		// down-report on node 2 is quorum-vetoed, and the ack is refused.
		unavailSt, _ = callOps(a, b, putImg(s, k2, a.Map.Shards[s].Epoch, w1))
		advance(2)
	})

	cl.Spawn(0, "cli-majority", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		a.WaitReady(p.P)
		b1, err := srpc.Bind(ep, cl.Ether, 1, app.Port, 50*time.Millisecond)
		if err != nil {
			fail("bind node 1: %v", err)
			return
		}
		if sts, _ := callOps(a, b1, putImg(s, k1, a.Map.Shards[s].Epoch, v1)); len(sts) != 1 || sts[0] != app.StatusOK {
			fail("pre-partition put: statuses %v", sts)
			return
		}
		oldEpoch := a.Map.Shards[s].Epoch
		cl.Fault.Sever([]int{1}, false)
		advance(1)
		await(p.P, 2)
		// Detection: the call into the minority times out; the report on
		// node 1 passes the quorum gate (it is unreachable from 3 of 4).
		if sts, _ := callOps(a, b1, getImg(s, k1, oldEpoch)); sts != nil {
			fail("call through the partition did not time out: %v", sts)
			return
		}
		a.ReportDown(0, 1)
		if !a.Down(1) {
			fail("majority-side report was not honored")
			return
		}
		in := a.Map.Shards[s]
		if in.Primary != 2 || in.Epoch != oldEpoch+1 {
			fail("promotion wrong: %+v (old epoch %d)", in, oldEpoch)
			return
		}
		b2, err := srpc.Bind(ep, cl.Ether, 2, app.Port, 50*time.Millisecond)
		if err != nil {
			fail("bind node 2: %v", err)
			return
		}
		// An old-regime stamp at the new primary is fenced off...
		staleSt, _ = callOps(a, b2, putImg(s, k1, oldEpoch, v2))
		// ...and the current stamp is accepted.
		okSt, _ = callOps(a, b2, putImg(s, k1, in.Epoch, v2))
		// Heal and reconcile: the deposed side hands its tail back.
		cl.Fault.Heal()
		a.Reconnect(1)
		p.P.Sleep(20 * time.Millisecond)
		advance(10)
	})

	if _, err := cl.RunChecked(5 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	cl.Shutdown()
	if t.Failed() {
		return
	}
	if len(unavailSt) != 1 || unavailSt[0] != app.StatusUnavailable {
		t.Fatalf("minority-side put statuses = %v, want [Unavailable]", unavailSt)
	}
	if len(staleSt) != 1 || staleSt[0] != app.StatusStaleEpoch {
		t.Fatalf("old-epoch put statuses = %v, want [StaleEpoch]", staleSt)
	}
	if len(okSt) != 1 || okSt[0] != app.StatusOK {
		t.Fatalf("new-epoch put statuses = %v, want [OK]", okSt)
	}
	if a.Rec.Unavail == 0 || a.Rec.EpochRejected == 0 || a.Rec.ReportsIgnored == 0 {
		t.Fatalf("counters: unavail=%d epoch.rejected=%d report.ignored=%d, want all > 0",
			a.Rec.Unavail, a.Rec.EpochRejected, a.Rec.ReportsIgnored)
	}
	// The new regime's write survived the heal; the deposed side's
	// never-acknowledged tail write reconciled in under it.
	if got, ok := a.Lookup(k1); !ok || string(got) != string(v2) {
		t.Fatalf("k1 = %q, %v; want %q", got, ok, v2)
	}
	if got, ok := a.Lookup(k2); !ok || string(got) != string(w1) {
		t.Fatalf("deposed tail k2 = %q, %v; want %q (reconciliation lost it)", got, ok, w1)
	}
}

// TestPartitionUnderLoad isolates an active primary mid-load, heals the
// partition, and asserts the full robustness contract: failover detected
// and recovered, zero acknowledged writes lost, zero stale reads served,
// and the node back in service after the heal.
func TestPartitionUnderLoad(t *testing.T) {
	const victim = 1
	cl, a := partCluster(t)
	g, err := loadgen.Start(a, loadgen.Config{
		Sessions: 1024, Gateways: []int{0}, Duration: 25 * time.Millisecond,
		Rate: 2e5, WriteFrac: 0.3, TrackAcks: true,
	})
	if err != nil {
		t.Fatalf("loadgen start: %v", err)
	}
	cl.Eng.Spawn("part-sched", func(p *sim.Proc) {
		g.WaitStarted(p)
		p.Sleep(4 * time.Millisecond)
		cl.Fault.Sever([]int{victim}, false)
		a.WaitDown(p, victim)
		p.Sleep(3 * time.Millisecond)
		cl.Fault.Heal()
		a.Reconnect(victim)
	})
	if _, err := cl.RunChecked(5 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !g.Done() {
		t.Fatal("generator did not drain")
	}
	if a.Rec.Failovers == 0 {
		t.Fatal("partition was never detected")
	}
	if a.Recovering() {
		t.Fatal("recovery never completed")
	}
	if a.Down(victim) {
		t.Fatal("victim still marked down after the heal")
	}
	if a.Rec.StaleReads != 0 {
		t.Fatalf("%d stale reads served", a.Rec.StaleReads)
	}
	if a.Rec.ValueErrs != 0 {
		t.Fatalf("%d corrupt values served", a.Rec.ValueErrs)
	}
	if len(g.AckedPuts) == 0 {
		t.Fatal("no puts were acknowledged")
	}
	for key, seq := range g.AckedPuts {
		val, ok := a.Lookup(key)
		if !ok {
			t.Fatalf("acked key %d lost entirely", key)
		}
		if len(val) < 16 {
			t.Fatalf("acked key %d has short value (%d bytes)", key, len(val))
		}
		if got := binary.LittleEndian.Uint32(val[12:]); got < seq {
			t.Fatalf("acked key %d regressed: stored seq %d < acked seq %d", key, got, seq)
		}
	}
}

// TestPartitionOneWayUnderLoad cuts only the victim's outbound direction:
// its requests and replies die, inbound traffic still arrives. The
// asymmetric cut must still be detected (calls into it get no replies) and
// must not lose acknowledged writes.
func TestPartitionOneWayUnderLoad(t *testing.T) {
	const victim = 2
	cl, a := partCluster(t)
	g, err := loadgen.Start(a, loadgen.Config{
		Sessions: 512, Gateways: []int{0}, Duration: 22 * time.Millisecond,
		Rate: 1.5e5, WriteFrac: 0.3, TrackAcks: true,
	})
	if err != nil {
		t.Fatalf("loadgen start: %v", err)
	}
	cl.Eng.Spawn("part-sched", func(p *sim.Proc) {
		g.WaitStarted(p)
		p.Sleep(4 * time.Millisecond)
		cl.Fault.Sever([]int{victim}, true)
		a.WaitDown(p, victim)
		p.Sleep(3 * time.Millisecond)
		cl.Fault.Heal()
		a.Reconnect(victim)
	})
	if _, err := cl.RunChecked(5 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !g.Done() {
		t.Fatal("generator did not drain")
	}
	if a.Rec.Failovers == 0 {
		t.Fatal("one-way partition was never detected")
	}
	if a.Rec.StaleReads != 0 {
		t.Fatalf("%d stale reads served", a.Rec.StaleReads)
	}
	for key, seq := range g.AckedPuts {
		val, ok := a.Lookup(key)
		if !ok || len(val) < 16 || binary.LittleEndian.Uint32(val[12:]) < seq {
			t.Fatalf("acked key %d not durable after one-way cut", key)
		}
	}
}

// TestPartitionDeterminism: the replay digest is byte-identical with a
// partition armed, cut, and healed mid-load — randomness and event order
// are stable through the whole sever/depose/heal/reconcile cycle.
func TestPartitionDeterminism(t *testing.T) {
	scenario := func() {
		cl := cluster.New(cluster.Config{MeshX: 2, MeshY: 2, FaultPlan: &fault.Plan{}})
		a, err := app.Start(cl, app.Config{})
		if err != nil {
			panic(err)
		}
		g, err := loadgen.Start(a, loadgen.Config{
			Sessions: 256, Gateways: []int{0}, Duration: 18 * time.Millisecond,
			Rate: 1e5, WriteFrac: 0.3,
		})
		if err != nil {
			panic(err)
		}
		cl.Eng.Spawn("part-sched", func(p *sim.Proc) {
			g.WaitStarted(p)
			p.Sleep(3 * time.Millisecond)
			cl.Fault.Sever([]int{1}, false)
			a.WaitDown(p, 1)
			p.Sleep(2 * time.Millisecond)
			cl.Fault.Heal()
			a.Reconnect(1)
		})
		if _, err := cl.RunChecked(5 * time.Second); err != nil {
			panic(err)
		}
		cl.Shutdown()
	}
	sim.CheckDeterminism(t, scenario)
}
