package nic

import (
	"testing"
	"time"

	"shrimp/internal/mem"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
)

// Receive-freeze fault tests: forced (injected) protection faults versus
// real ones, and the drop-vs-retry unfreeze semantics for each. A forced
// fault's held head-of-queue packet is innocent — the daemon must resume
// with Unfreeze(false); dropping would lose good data.

// TestForceFaultFreezesAndRetries: a forced fault freezes the receive
// path; packets arriving during the freeze queue behind it and all get
// delivered after Unfreeze(false).
func TestForceFaultFreezesAndRetries(t *testing.T) {
	r := newRig(t)
	destFrame := mem.PFN(10)
	idx := r.bind(destFrame, OPTEntry{})
	var fault ProtectionFault
	r.m1.RegisterIRQ(VecProtection, func(data any) { fault = data.(ProtectionFault) })

	r.n1.ForceFault(0)
	if !r.n1.Frozen() {
		t.Fatal("forced fault did not freeze the receive path")
	}
	r.eng.RunAll() // deliver the protection interrupt
	if !fault.Forced {
		t.Fatalf("fault = %+v, want Forced", fault)
	}
	if r.n1.ForcedFaults != 1 {
		t.Fatalf("ForcedFaults = %d", r.n1.ForcedFaults)
	}

	// Traffic arriving while frozen queues behind the freeze.
	r.eng.Spawn("sender", func(p *sim.Proc) {
		r.n0.SubmitDU([]DUChunk{MakeDUChunk(0x5000, idx, 0, 64, false)}).Wait(p)
	})
	r.eng.RunAll()
	if r.n1.PacketsIn != 0 {
		t.Fatal("packet delivered through a frozen receive path")
	}

	// The daemon's handler retries (the held packet is innocent).
	r.n1.Unfreeze(false)
	r.eng.RunAll()
	if r.n1.PacketsIn != 1 {
		t.Fatalf("PacketsIn = %d after retry-unfreeze, want 1", r.n1.PacketsIn)
	}
}

// TestForceFaultDropLosesInnocentPacket documents why the daemon must NOT
// use Drop semantics on a forced fault: the queued head packet is good
// data, and Unfreeze(true) discards it.
func TestForceFaultDropLosesInnocentPacket(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{})
	r.m1.RegisterIRQ(VecProtection, func(any) {})

	r.n1.ForceFault(0)
	r.eng.Spawn("sender", func(p *sim.Proc) {
		r.n0.SubmitDU([]DUChunk{MakeDUChunk(0x5000, idx, 0, 64, false)}).Wait(p)
	})
	r.eng.RunAll()

	r.n1.Unfreeze(true)
	r.eng.RunAll()
	if r.n1.PacketsIn != 0 {
		t.Fatal("drop-unfreeze delivered the discarded packet")
	}
	if r.n1.Frozen() {
		t.Fatal("still frozen after unfreeze")
	}
}

// TestRealFaultDropVsRetry: for a REAL protection violation the choice is
// semantic — retry redelivers once the page is re-enabled, drop discards
// the offender and lets traffic behind it flow.
func TestRealFaultDropVsRetry(t *testing.T) {
	for _, drop := range []bool{false, true} {
		r := newRig(t)
		destFrame := mem.PFN(10)
		idx := r.bind(destFrame, OPTEntry{})
		r.n1.SetIPT(destFrame, IPTEntry{Enable: false}) // violation
		r.m1.RegisterIRQ(VecProtection, func(any) {})
		r.eng.Spawn("sender", func(p *sim.Proc) {
			r.n0.SubmitDU([]DUChunk{MakeDUChunk(0x5000, idx, 0, 64, false)}).Wait(p)
		})
		r.eng.RunAll()
		if !r.n1.Frozen() {
			t.Fatal("violation did not freeze")
		}
		r.n1.SetIPT(destFrame, IPTEntry{Enable: true}) // page re-enabled
		r.n1.Unfreeze(drop)
		r.eng.RunAll()
		want := int64(1)
		if drop {
			want = 0
		}
		if r.n1.PacketsIn != want {
			t.Fatalf("drop=%v: PacketsIn = %d, want %d", drop, r.n1.PacketsIn, want)
		}
	}
}

// TestRepeatedForcedFaultStorm: a storm of forced faults with traffic
// interleaved — every freeze handled with retry semantics loses nothing.
func TestRepeatedForcedFaultStorm(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{})
	storms := 0
	r.m1.RegisterIRQ(VecProtection, func(data any) {
		f := data.(ProtectionFault)
		if !f.Forced {
			t.Errorf("unexpected real fault: %+v", f)
		}
		storms++
		// Model the daemon: handle the interrupt, then resume.
		r.eng.Schedule(time.Microsecond, func() { r.n1.Unfreeze(false) })
	})
	for i := 0; i < 5; i++ {
		at := sim.Time(0).Add(time.Duration(10+20*i) * time.Microsecond)
		r.eng.PostAt(at, func() { r.n1.ForceFault(0) })
	}
	r.eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			r.n0.SubmitDU([]DUChunk{MakeDUChunk(0x5000, idx, 0, 64, false)}).Wait(p)
			p.Sleep(7 * time.Microsecond)
		}
	})
	r.eng.RunAll()
	if r.n1.PacketsIn != 20 {
		t.Fatalf("PacketsIn = %d, want all 20 despite the storm", r.n1.PacketsIn)
	}
	if storms == 0 {
		t.Fatal("storm never fired")
	}
	if r.n1.Frozen() {
		t.Fatal("left frozen after the storm drained")
	}
}

// TestForceFaultWhileFrozenIsNoop: a forced fault landing on an already
// frozen path must not double-freeze or double-interrupt.
func TestForceFaultWhileFrozenIsNoop(t *testing.T) {
	r := newRig(t)
	r.bind(10, OPTEntry{})
	irqs := 0
	r.m1.RegisterIRQ(VecProtection, func(any) { irqs++ })
	r.n1.ForceFault(0)
	r.n1.ForceFault(0)
	r.eng.RunAll()
	if irqs != 1 || r.n1.ForcedFaults != 1 {
		t.Fatalf("irqs=%d ForcedFaults=%d, want 1/1", irqs, r.n1.ForcedFaults)
	}
}

// TestCrashSilencesNIC: a crashed board delivers nothing and cannot be
// faulted or frozen.
func TestCrashSilencesNIC(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{})
	r.n1.Crash()
	if !r.n1.dead {
		t.Fatal("not dead after Crash")
	}
	r.n1.ForceFault(0)
	if r.n1.Frozen() {
		t.Fatal("dead board froze")
	}
	r.eng.Spawn("sender", func(p *sim.Proc) {
		r.n0.SubmitDU([]DUChunk{MakeDUChunk(0x5000, idx, 0, 64, false)}).Wait(p)
	})
	r.eng.RunAll()
	if r.n1.PacketsIn != 0 {
		t.Fatal("dead board received a packet")
	}
}

var _ = mesh.NodeID(0) // keep the import for the fixture types
