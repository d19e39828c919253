package integration

import (
	"strings"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/nic"
	"shrimp/internal/vmmc"
)

// TestOPTExhaustion: a NIC whose outgoing page table is nearly full must
// fail imports gracefully once the table is full, and recover after
// unimport frees entries.
func TestOPTExhaustion(t *testing.T) {
	c := cluster.New(cluster.Config{MemBytes: 8 << 20})
	// Leave 8 entries free for the importer.
	if _, err := c.Node(0).NIC.AllocOPT(c.Node(0).NIC.OPTSize() - 8); err != nil {
		t.Fatal(err)
	}
	ok := false
	c.Spawn(1, "exporter", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(1).Daemon)
		for i, name := range []string{"a", "b", "c"} {
			va := p.MapPages(4, 0)
			if _, err := ep.Export(va, 4, vmmc.ExportOpts{Name: name}); err != nil {
				t.Errorf("export %d: %v", i, err)
			}
		}
	})
	c.Spawn(0, "importer", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(0).Daemon)
		p.P.Sleep(5 * time.Millisecond)
		// Two 4-page imports fit (8 entries); the third must fail with
		// an OPT exhaustion error, not a panic.
		impA, err := ep.Import(1, "a")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := ep.Import(1, "b"); err != nil {
			t.Error(err)
			return
		}
		_, err = ep.Import(1, "c")
		if err == nil || !strings.Contains(err.Error(), "OPT") {
			t.Errorf("third import should exhaust the OPT: %v", err)
			return
		}
		// Freeing one mapping makes room again.
		if err := ep.Unimport(impA); err != nil {
			t.Error(err)
			return
		}
		if _, err := ep.Import(1, "c"); err != nil {
			t.Errorf("import after unimport should succeed: %v", err)
			return
		}
		ok = true
	})
	c.Run()
	if !ok {
		t.Fatal("importer never finished")
	}
}

// TestFreezeRecoveryWithDrop: after a protection fault the daemon can drop
// the offending packet and unfreeze; subsequent legitimate traffic flows.
func TestFreezeRecoveryWithDrop(t *testing.T) {
	c := cluster.Default()
	var faults int
	c.Node(1).Daemon.FaultHook = func(f nic.ProtectionFault) {
		faults++
		// Policy: discard the offender and resume (a daemon could also
		// re-enable the page and retry).
		c.Node(1).NIC.Unfreeze(true)
	}
	var goodVA kernel.VA
	var rxp *kernel.Process
	delivered := false
	c.Spawn(1, "rx", func(p *kernel.Process) {
		rxp = p
		ep := vmmc.Attach(p, c.Node(1).Daemon)
		goodVA = p.MapPages(1, 0)
		if _, err := ep.Export(goodVA, 1, vmmc.ExportOpts{Name: "good"}); err != nil {
			t.Error(err)
			return
		}
		bad := p.MapPages(1, 0)
		if _, err := ep.Export(bad, 1, vmmc.ExportOpts{Name: "bad"}); err != nil {
			t.Error(err)
			return
		}
		p.WaitWord(goodVA, func(v uint32) bool { return v == 7 })
		delivered = true
	})
	c.Spawn(0, "tx", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(0).Daemon)
		p.P.Sleep(5 * time.Millisecond)
		badImp, err := ep.Import(1, "bad")
		if err != nil {
			t.Error(err)
			return
		}
		goodImp, err := ep.Import(1, "good")
		if err != nil {
			t.Error(err)
			return
		}
		// Sabotage the "bad" mapping at the hardware level, then send
		// through it — this faults and freezes the receiver. (The "bad"
		// page is the one mapped right after "good".)
		badPTE, _ := rxp.PTEOf(goodVA + hw.Page)
		c.Node(1).NIC.SetIPT(badPTE.Frame, nic.IPTEntry{})
		src := p.Alloc(4, 4)
		p.WriteWord(src, 0xdead)
		if err := ep.Send(badImp, 0, src, 4); err != nil {
			t.Error(err)
			return
		}
		p.P.Sleep(time.Millisecond)
		// Legitimate traffic must still get through after recovery.
		p.WriteWord(src, 7)
		if err := ep.Send(goodImp, 0, src, 4); err != nil {
			t.Error(err)
		}
	})
	c.Run()
	if faults != 1 {
		t.Fatalf("faults = %d, want 1", faults)
	}
	if !delivered {
		t.Fatal("legitimate traffic blocked after freeze recovery")
	}
}

// TestFrameExhaustion: a machine out of physical memory panics on
// allocation — a model invariant (the kernel has no swapping), checked so
// the failure mode is explicit rather than silent corruption.
func TestFrameExhaustion(t *testing.T) {
	c := cluster.New(cluster.Config{MemBytes: 64 * 1024}) // 16 frames
	hit := false
	c.Spawn(0, "hog", func(p *kernel.Process) {
		defer func() {
			if recover() != nil {
				hit = true
			}
		}()
		for i := 0; i < 100; i++ {
			p.MapPages(1, 0)
		}
	})
	c.Run()
	if !hit {
		t.Fatal("frame exhaustion should panic, not wrap silently")
	}
}

// TestEarlySenderLateReceiver: traffic sent before the receiver process
// even looks at its buffer is buffered in the receiver's MEMORY (that is
// the whole VMMC model — no library buffering, no rendezvous): nothing is
// lost and no sender blocking occurs.
func TestEarlySenderLateReceiver(t *testing.T) {
	c := cluster.Default()
	got := false
	c.Spawn(1, "sleepy-rx", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(1).Daemon)
		va := p.MapPages(1, 0)
		if _, err := ep.Export(va, 1, vmmc.ExportOpts{Name: "rx"}); err != nil {
			t.Error(err)
			return
		}
		// Ignore the network entirely for 50 ms of virtual time.
		p.Compute(50 * time.Millisecond)
		// The data has long since landed in our memory.
		if p.PeekWord(va) != 0x1234 {
			t.Error("early-sent data not present")
		}
		got = true
	})
	c.Spawn(0, "tx", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(0).Daemon)
		p.P.Sleep(5 * time.Millisecond)
		imp, err := ep.Import(1, "rx")
		if err != nil {
			t.Error(err)
			return
		}
		src := p.Alloc(4, 4)
		p.WriteWord(src, 0x1234)
		t0 := p.P.Now()
		if err := ep.Send(imp, 0, src, 4); err != nil {
			t.Error(err)
		}
		if blocked := p.P.Now().Sub(t0); blocked > 100*time.Microsecond {
			t.Errorf("sender blocked %v on an inattentive receiver", blocked)
		}
	})
	c.Run()
	if !got {
		t.Fatal("receiver never verified")
	}
}
