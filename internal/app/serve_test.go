// Integration tests for the serving subsystem: generated load end to end,
// determinism digests at two cluster sizes, overload shedding, and a
// primary crash with measured recovery — the ISSUE acceptance scenarios at
// test scale.
package app_test

import (
	"encoding/binary"
	"testing"
	"time"

	"shrimp/internal/app"
	"shrimp/internal/app/loadgen"
	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/srpc"
	"shrimp/internal/vmmc"
)

// serveScenario builds a cluster, an app, and a generator, runs to the
// budget, and hands the drained world to check (nil check just runs it).
func serveScenario(t *testing.T, mx, my int, acfg app.Config, lcfg loadgen.Config,
	during func(cl *cluster.Cluster, a *app.App, g *loadgen.Gen),
	check func(cl *cluster.Cluster, a *app.App, g *loadgen.Gen)) {
	t.Helper()
	cl := cluster.New(cluster.Config{MeshX: mx, MeshY: my})
	a, err := app.Start(cl, acfg)
	if err != nil {
		t.Fatalf("app start: %v", err)
	}
	g, err := loadgen.Start(a, lcfg)
	if err != nil {
		t.Fatalf("loadgen start: %v", err)
	}
	if during != nil {
		during(cl, a, g)
	}
	if _, err := cl.RunChecked(5 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !g.Done() {
		t.Fatal("generator did not drain")
	}
	if check != nil {
		check(cl, a, g)
	}
	cl.Shutdown()
}

func TestServeSmoke(t *testing.T) {
	serveScenario(t, 2, 2, app.Config{},
		loadgen.Config{Sessions: 512, Duration: 2 * time.Millisecond, Rate: 3e5},
		nil,
		func(cl *cluster.Cluster, a *app.App, g *loadgen.Gen) {
			r := g.Report()
			if r.Completed == 0 {
				t.Fatal("no ops completed")
			}
			if r.Sessions == 0 {
				t.Fatal("no sessions issued requests")
			}
			if r.P50[app.ClassGetSrv] <= 0 {
				t.Fatalf("get.srv p50 = %d, want > 0", r.P50[app.ClassGetSrv])
			}
			if a.Rec.ValueErrs != 0 || a.Rec.ProtoErrs != 0 {
				t.Fatalf("integrity failures: value=%d proto=%d", a.Rec.ValueErrs, a.Rec.ProtoErrs)
			}
			if a.Rec.ReplOps == 0 {
				t.Fatal("no writes were replicated")
			}
			stores := app.StoreLens(a)
			total := 0
			for _, n := range stores {
				total += n
			}
			if total == 0 {
				t.Fatal("no entries stored")
			}
		})
}

// TestFollowerRefusesReplicaOKGet: only a shard's primary serves it. A get
// sent to the shard's synced follower is refused with StatusWrongNode, even
// when its meta word sets the reserved byte's low bit, the replica-OK flag
// that once let a synced follower answer reads.
func TestFollowerRefusesReplicaOKGet(t *testing.T) {
	cl := cluster.New(cluster.Config{MeshX: 2, MeshY: 1})
	defer cl.Shutdown()
	a, err := app.Start(cl, app.Config{})
	if err != nil {
		t.Fatalf("app start: %v", err)
	}
	s, keys := keysInShard(a.Map, 0, 1)
	if s < 0 {
		t.Fatal("no shard led by node 0")
	}
	if in := a.Map.Shards[s]; in.Replica != 1 || !in.Synced {
		t.Fatalf("shard %d: %+v, want node 1 as its synced follower", s, in)
	}
	var sts []uint32
	cl.Spawn(0, "cli", func(p *kernel.Process) {
		a.WaitReady(p.P)
		b, err := srpc.Bind(vmmc.Attach(p, cl.Node(0).Daemon), cl.Ether, 1, app.Port, 50*time.Millisecond)
		if err != nil {
			t.Errorf("bind node 1: %v", err)
			return
		}
		img := getImg(s, keys[0], a.Map.Shards[s].Epoch)
		img[4+2] = 1 // the meta word's reserved byte
		sts, _ = callOps(a, b, img)
	})
	if _, err := cl.RunChecked(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sts) != 1 || sts[0] != app.StatusWrongNode {
		t.Fatalf("follower get statuses = %v, want [WrongNode]", sts)
	}
}

// determinismScenario is the digest workload: moderate load at the given
// mesh size.
func determinismScenario(mx, my int) func() {
	return func() {
		cl := cluster.New(cluster.Config{MeshX: mx, MeshY: my})
		a, err := app.Start(cl, app.Config{})
		if err != nil {
			panic(err)
		}
		_, err = loadgen.Start(a, loadgen.Config{
			Sessions: 256, Duration: 1500 * time.Microsecond, Rate: 2e5,
		})
		if err != nil {
			panic(err)
		}
		if _, err := cl.RunChecked(5 * time.Second); err != nil {
			panic(err)
		}
		cl.Shutdown()
	}
}

func TestServeDeterminism4Nodes(t *testing.T) {
	sim.CheckDeterminism(t, determinismScenario(2, 2))
}

func TestServeDeterminism8Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sim.CheckDeterminism(t, determinismScenario(4, 2))
}

// TestGatewayRunsOnlyReadySenders runs the scenario table's app row
// (4 nodes, 512 sessions, 2e5 ops/s for 2 ms) and bounds the same-instant
// re-waits. Before the gateway and its warm-up barrier woke through
// BroadcastIf, the row made 1,101 re-waits, most of them senders that the
// ticker's every-tick Broadcast ran with nothing queued for them. Running
// only the waiters that can proceed must cut that by at least 90%.
func TestGatewayRunsOnlyReadySenders(t *testing.T) {
	const parentRewaits = 1101
	serveScenario(t, 2, 2, app.Config{},
		loadgen.Config{Sessions: 512, Duration: 2 * time.Millisecond, Rate: 2e5},
		nil,
		func(cl *cluster.Cluster, a *app.App, g *loadgen.Gen) {
			if got := cl.Eng.Rewaits; got*10 > parentRewaits {
				t.Fatalf("Rewaits = %d, want at most %d (a tenth of %d)",
					got, parentRewaits/10, parentRewaits)
			}
		})
}

func TestOverloadSheds(t *testing.T) {
	// Per-shard capacity 1/ServiceTime = 250k ops/s; 8 shards could absorb
	// 2M ops/s spread evenly, but the Zipf draw concentrates on the hot
	// shard, so 1.5M ops/s offered is far past its bound.
	acfg := app.Config{QueueBound: 64, ServiceTime: 4 * time.Microsecond}
	serveScenario(t, 2, 2, acfg,
		loadgen.Config{Sessions: 4096, Duration: 2 * time.Millisecond, Rate: 1.5e6},
		nil,
		func(cl *cluster.Cluster, a *app.App, g *loadgen.Gen) {
			if a.Rec.Shed == 0 {
				t.Fatal("overload produced no sheds")
			}
			r := g.Report()
			if r.Completed == 0 {
				t.Fatal("no ops admitted under overload")
			}
			// Admission control bounds served latency: the backlog a shard
			// may hold is QueueBound ops of ServiceTime each, plus the
			// batch call's own transport and replication time.
			bound := int64(2 * time.Millisecond)
			if p50 := r.P50[app.ClassGetSrv]; p50 <= 0 || p50 > bound {
				t.Fatalf("get.srv p50 = %dns, want (0, %dns]: admission control failed to bound served latency", p50, bound)
			}
		})
}

func TestFailoverRecoversWithoutLosingAckedWrites(t *testing.T) {
	const victim = 2
	acfg := app.Config{}
	lcfg := loadgen.Config{
		Sessions: 1024, Gateways: []int{0}, Duration: 25 * time.Millisecond,
		Rate: 2e5, WriteFrac: 0.3, TrackAcks: true,
	}
	serveScenario(t, 2, 2, acfg, lcfg,
		func(cl *cluster.Cluster, a *app.App, g *loadgen.Gen) {
			// Crash relative to load start: a crash mid-warmup would stall
			// the rendezvous binds, not exercise failover.
			cl.Eng.Spawn("crash-sched", func(p *sim.Proc) {
				g.WaitStarted(p)
				p.Sleep(4 * time.Millisecond)
				cl.CrashNode(victim)
				a.WaitDown(p, victim)
				p.Sleep(2 * time.Millisecond)
				cl.RestartNode(victim)
				a.Rejoin(victim)
			})
		},
		func(cl *cluster.Cluster, a *app.App, g *loadgen.Gen) {
			if a.Rec.Failovers == 0 {
				t.Fatal("crash was never detected")
			}
			if a.Recovering() {
				t.Fatal("recovery never completed")
			}
			rt := a.RecoveryTime()
			if rt <= 0 {
				t.Fatalf("recovery time = %v, want > 0", rt)
			}
			if a.Rec.ResyncKeys == 0 {
				t.Fatal("rejoined node was never resynced")
			}
			if len(g.AckedPuts) == 0 {
				t.Fatal("no puts were acknowledged")
			}
			// Every acknowledged write must be durable: the stored value's
			// embedded sequence is at least the highest acked one.
			for key, seq := range g.AckedPuts {
				val, ok := a.Lookup(key)
				if !ok {
					t.Fatalf("acked key %d lost entirely", key)
				}
				if len(val) < 16 {
					t.Fatalf("acked key %d has short value %d bytes", key, len(val))
				}
				if got := binary.LittleEndian.Uint32(val[12:]); got < seq {
					t.Fatalf("acked key %d regressed: stored seq %d < acked seq %d", key, got, seq)
				}
			}
		})
}

func TestFailoverDeterminism(t *testing.T) {
	const victim = 1
	scenario := func() {
		cl := cluster.New(cluster.Config{MeshX: 2, MeshY: 2})
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
		cl.Eng.Spawn("crash-sched", func(p *sim.Proc) {
			g.WaitStarted(p)
			p.Sleep(3 * time.Millisecond)
			cl.CrashNode(victim)
			a.WaitDown(p, victim)
			p.Sleep(2 * time.Millisecond)
			cl.RestartNode(victim)
			a.Rejoin(victim)
		})
		if _, err := cl.RunChecked(5 * time.Second); err != nil {
			panic(err)
		}
		cl.Shutdown()
	}
	sim.CheckDeterminism(t, scenario)
}
