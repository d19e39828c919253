package cluster

import (
	"errors"
	"testing"
	"time"

	"shrimp/internal/fault"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

// transfer streams count 256-byte sends node 0 -> node 1 over an imported
// mapping, pacing with gap between sends. The receiver waits for the final
// word flag.
func transfer(cl *Cluster, count int, gap time.Duration) {
	const doneFlag = 0xD00E
	exported := false
	cond := sim.NewCond(cl.Eng)
	cl.Spawn(1, "rx", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(1).Daemon)
		va := p.MapPages(1, 0)
		if _, err := ep.Export(va, 1, vmmc.ExportOpts{Name: "buf"}); err != nil {
			panic(err)
		}
		exported = true
		cond.Broadcast()
		p.WaitWord(va, func(v uint32) bool { return v == doneFlag })
	})
	cl.Spawn(0, "tx", func(p *kernel.Process) {
		for !exported {
			cond.Wait(p.P)
		}
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		imp, err := ep.Import(1, "buf")
		if err != nil {
			panic(err)
		}
		src := p.Alloc(256+8, hw.WordSize)
		p.Poke(src, make([]byte, 256))
		for i := 0; i < count; i++ {
			if err := ep.Send(imp, 64, src, 256); err != nil {
				panic(err)
			}
			if gap > 0 {
				p.P.Sleep(gap)
			}
		}
		flag := p.Alloc(8, hw.WordSize)
		p.WriteWord(flag, doneFlag)
		if err := ep.Send(imp, 0, flag, 4); err != nil {
			panic(err)
		}
	})
}

// TestFaultedRunDeterministic is the acceptance criterion for the
// injector: sim.CheckDeterminism holds with link faults, the reliability
// sublayer, and a NIC freeze storm all armed.
func TestFaultedRunDeterministic(t *testing.T) {
	plan := fault.Plan{
		Name: "determinism",
		Link: fault.LinkFaults{DropProb: 0.02, CorruptProb: 0.02, DelayProb: 0.05, ReorderProb: 0.02},
		NIC: []fault.NICFault{
			{Node: 1, Kind: fault.FreezeStorm, At: 100 * time.Microsecond, Count: 3, Gap: 10 * time.Microsecond},
		},
	}
	sim.CheckDeterminism(t, func() {
		cl := New(Config{FaultPlan: &plan, FaultSeed: 3, Reliable: true})
		defer cl.Shutdown()
		transfer(cl, 40, 5*time.Microsecond)
		cl.Run()
	})
}

// TestLossyLinkTransferCompletes: with the retransmit sublayer on, a
// transfer over a 2%-lossy backplane still terminates — RunChecked's
// watchdog confirms nothing is left parked.
func TestLossyLinkTransferCompletes(t *testing.T) {
	plan := fault.Plan{Link: fault.LinkFaults{DropProb: 0.02, CorruptProb: 0.01}}
	cl := New(Config{FaultPlan: &plan, FaultSeed: 5, Reliable: true})
	defer cl.Shutdown()
	transfer(cl, 60, 0)
	if _, err := cl.RunChecked(time.Second); err != nil {
		t.Fatal(err)
	}
	if cl.Fault.Injected() == 0 {
		t.Fatal("plan injected nothing — the test exercised no faults")
	}
	if cl.Mesh.RelStats().Retransmits == 0 {
		t.Fatal("losses never triggered a retransmission")
	}
}

// TestFreezeStormUnderInjector: a scheduled receive-freeze storm hits the
// receiving NIC mid-transfer; the daemon absorbs every forced fault with
// retry semantics and the transfer completes intact.
func TestFreezeStormUnderInjector(t *testing.T) {
	plan := fault.Plan{NIC: []fault.NICFault{
		{Node: 1, Kind: fault.FreezeStorm, At: 150 * time.Microsecond, Count: 5, Gap: 20 * time.Microsecond},
	}}
	cl := New(Config{FaultPlan: &plan, FaultSeed: 2})
	defer cl.Shutdown()
	transfer(cl, 50, 5*time.Microsecond)
	if _, err := cl.RunChecked(time.Second); err != nil {
		t.Fatal(err)
	}
	// Storm ticks landing while the path is still frozen are no-ops, so
	// the count can be below the plan's 5 — but some must have landed.
	if got := cl.Node(1).NIC.ForcedFaults; got == 0 || got > 5 {
		t.Fatalf("ForcedFaults = %d, want 1..5", got)
	}
	// Retry semantics: every data packet still arrived.
	if cl.Node(1).NIC.PacketsIn == 0 {
		t.Fatal("no packets delivered through the storm")
	}
}

// TestCrashMidTransferRecovery: node 1 dies mid-stream. The sender's
// daemon reaps the dead node's mappings (sends surface vmmc.ErrPeerDead),
// and the engine drains without leaking a parked proc on the dead side.
func TestCrashMidTransferRecovery(t *testing.T) {
	plan := fault.Plan{Crashes: []fault.Crash{{Node: 1, At: 2 * time.Millisecond}}}
	cl := New(Config{FaultPlan: &plan})
	defer cl.Shutdown()

	exported := false
	cond := sim.NewCond(cl.Eng)
	cl.Spawn(1, "rx", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(1).Daemon)
		va := p.MapPages(1, 0)
		if _, err := ep.Export(va, 1, vmmc.ExportOpts{Name: "buf"}); err != nil {
			panic(err)
		}
		exported = true
		cond.Broadcast()
		p.WaitWord(va, func(v uint32) bool { return false }) // parked at crash time
	})
	sawDead := false
	cl.Spawn(0, "tx", func(p *kernel.Process) {
		for !exported {
			cond.Wait(p.P)
		}
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		imp, err := ep.Import(1, "buf")
		if err != nil {
			panic(err)
		}
		src := p.Alloc(256+8, hw.WordSize)
		for i := 0; i < 100; i++ {
			switch err := ep.Send(imp, 64, src, 256); {
			case err == nil:
				// pre-crash, or pre-reap silent drop
			case errors.Is(err, vmmc.ErrPeerDead):
				sawDead = true
				return
			default:
				panic(err)
			}
			p.P.Sleep(50 * time.Microsecond)
		}
	})
	if _, err := cl.RunChecked(time.Second); err != nil {
		t.Fatal(err)
	}
	if !sawDead {
		t.Fatal("sends to the crashed node never surfaced ErrPeerDead")
	}
	if cl.Node(0).Daemon.ReapedImports == 0 {
		t.Fatal("survivor daemon reaped nothing")
	}
	if !cl.Node(1).Dead {
		t.Fatal("node 1 not marked dead")
	}
}

// TestRestartedNodeRejoins: after a crash and restart, the fresh node can
// export again and a survivor can import and transfer to it — the cluster
// heals rather than limping.
func TestRestartedNodeRejoins(t *testing.T) {
	cl := Default()
	defer cl.Shutdown()
	cl.Eng.PostAt(sim.Time(0).Add(time.Millisecond), func() { cl.CrashNode(1) })
	cl.Eng.PostAt(sim.Time(0).Add(2*time.Millisecond), func() { cl.RestartNode(1) })

	done := false
	cl.Spawn(0, "driver", func(p *kernel.Process) {
		p.P.Sleep(3 * time.Millisecond) // wait out the crash/restart cycle
		exported := false
		cond := sim.NewCond(cl.Eng)
		cl.Spawn(1, "rx2", func(p2 *kernel.Process) {
			ep := vmmc.Attach(p2, cl.Node(1).Daemon)
			va := p2.MapPages(1, 0)
			if _, err := ep.Export(va, 1, vmmc.ExportOpts{Name: "again"}); err != nil {
				panic(err)
			}
			exported = true
			cond.Broadcast()
			p2.WaitWord(va, func(v uint32) bool { return v == 1 })
		})
		for !exported {
			cond.Wait(p.P)
		}
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		imp, err := ep.Import(1, "again")
		if err != nil {
			t.Errorf("import from restarted node: %v", err)
			return
		}
		flag := p.Alloc(8, hw.WordSize)
		p.WriteWord(flag, 1)
		if err := ep.Send(imp, 0, flag, 4); err != nil {
			t.Errorf("send to restarted node: %v", err)
			return
		}
		done = true
	})
	if _, err := cl.RunChecked(time.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("driver never finished")
	}
}
