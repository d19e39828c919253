package nic

import (
	"bytes"
	"testing"
	"time"

	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/mem"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
)

// rig is a two-node test fixture: node 0 sends, node 1 receives.
type rig struct {
	eng    *sim.Engine
	net    *mesh.Network
	m0, m1 *kernel.Machine
	n0, n1 *NIC
}

func newRig(t testing.TB) *rig {
	t.Helper()
	e := sim.NewEngine()
	net := mesh.NewDims(e, []int{2, 1})
	m0 := kernel.NewMachine(0, e, 1<<20)
	m1 := kernel.NewMachine(1, e, 1<<20)
	return &rig{
		eng: e, net: net, m0: m0, m1: m1,
		n0: New(m0, net, 0, 256),
		n1: New(m1, net, 1, 256),
	}
}

// store is a CPU store on node 0 as the kernel makes one: the write, then
// its presentation to the snoop (which the kernel delays by the cache-to-bus
// time).
func (r *rig) store(pa mem.PA, b []byte) {
	r.m0.Mem.Write(pa, b)
	r.m0.Mem.PresentToSnoop(pa, b)
}

// read copies n bytes at pa out of node 1's memory.
func (r *rig) read(pa mem.PA, n int) []byte {
	b := make([]byte, n)
	r.m1.Mem.ReadInto(pa, b)
	return b
}

// bind programs OPT entry on n0 pointing at destFrame on node 1, with the
// IPT enabled there.
func (r *rig) bind(destFrame mem.PFN, e OPTEntry) int {
	idx, err := r.n0.AllocOPT(1)
	if err != nil {
		panic(err)
	}
	e.Valid = true
	e.DstNode = 1
	e.DstPFN = destFrame
	r.n0.SetOPT(idx, e)
	r.n1.SetIPT(destFrame, IPTEntry{Enable: true})
	return idx
}

func TestOPTAllocContiguous(t *testing.T) {
	r := newRig(t)
	a, err := r.n0.AllocOPT(10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.n0.AllocOPT(5)
	if err != nil {
		t.Fatal(err)
	}
	if b < a+10 {
		t.Fatalf("allocations overlap: %d %d", a, b)
	}
	r.n0.FreeOPT(a, 10)
	c, err := r.n0.AllocOPT(8)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("freed range not reused: got %d want %d", c, a)
	}
	if _, err := r.n0.AllocOPT(1000); err == nil {
		t.Fatal("oversized OPT allocation should fail")
	}
}

func TestDeliberateUpdateDelivers(t *testing.T) {
	r := newRig(t)
	destFrame := mem.PFN(10)
	idx := r.bind(destFrame, OPTEntry{})
	src := []byte("deliberate update payload")
	r.m0.Mem.Write(0x5000, src) // stage source data in node 0 memory
	var done sim.Time
	r.eng.Spawn("sender", func(p *sim.Proc) {
		job := r.n0.SubmitDU([]DUChunk{MakeDUChunk(0x5000, idx, 128, len(src), false)})
		job.Wait(p)
		done = p.Now()
	})
	r.eng.RunAll()
	got := r.read(destFrame.Base()+128, len(src))
	if !bytes.Equal(got, src) {
		t.Fatalf("payload corrupted: %q", got)
	}
	if done == 0 {
		t.Fatal("blocking wait never completed")
	}
	if r.n0.PacketsOut != 1 || r.n1.PacketsIn != 1 {
		t.Fatalf("packet counts: out=%d in=%d", r.n0.PacketsOut, r.n1.PacketsIn)
	}
}

func TestDUBlockingWaitIsReadCompletion(t *testing.T) {
	// The blocking send completes when source data is read out of memory,
	// which is before the remote delivery completes.
	r := newRig(t)
	idx := r.bind(10, OPTEntry{})
	var sendDone sim.Time
	var deliveredBySendDone int64
	r.eng.Spawn("sender", func(p *sim.Proc) {
		job := r.n0.SubmitDU([]DUChunk{MakeDUChunk(0x5000, idx, 0, 512, false)})
		job.Wait(p)
		sendDone = p.Now()
		deliveredBySendDone = r.n1.PacketsIn
	})
	r.eng.RunAll()
	if sendDone == 0 {
		t.Fatal("send never completed")
	}
	if deliveredBySendDone != 0 {
		t.Fatal("blocking send should complete at source-read time, before remote delivery")
	}
	if r.n1.PacketsIn != 1 {
		t.Fatal("packet not delivered")
	}
}

func TestDUMultiChunkOrder(t *testing.T) {
	r := newRig(t)
	destFrame := mem.PFN(10)
	idx := r.bind(destFrame, OPTEntry{})
	// Three chunks landing at adjacent offsets; must land in order with
	// correct contents.
	for i := 0; i < 3; i++ {
		r.m0.Mem.Write(mem.PA(0x4000+i*256), bytes.Repeat([]byte{byte('a' + i)}, 256))
	}
	r.eng.Spawn("sender", func(p *sim.Proc) {
		job := r.n0.SubmitDU([]DUChunk{
			MakeDUChunk(0x4000, idx, 0, 256, false),
			MakeDUChunk(0x4100, idx, 256, 256, false),
			MakeDUChunk(0x4200, idx, 512, 256, true),
		})
		job.Wait(p)
	})
	r.eng.RunAll()
	got := r.read(destFrame.Base(), 768)
	want := append(bytes.Repeat([]byte{'a'}, 256), append(bytes.Repeat([]byte{'b'}, 256), bytes.Repeat([]byte{'c'}, 256)...)...)
	if !bytes.Equal(got, want) {
		t.Fatal("multi-chunk payload corrupted or reordered")
	}
}

func TestAUCombiningConsecutiveWrites(t *testing.T) {
	r := newRig(t)
	destFrame := mem.PFN(10)
	idx := r.bind(destFrame, OPTEntry{Combine: true, CombineTimer: true})
	localFrame := mem.PFN(5)
	r.n0.BindAU(localFrame, idx)

	// Two consecutive CPU store bursts must combine into ONE packet.
	base := localFrame.Base()
	r.store(base+100, []byte("hello "))
	r.store(base+106, []byte("world"))
	r.eng.RunAll()
	if r.n0.PacketsOut != 1 {
		t.Fatalf("combining failed: %d packets", r.n0.PacketsOut)
	}
	got := r.read(destFrame.Base()+100, 11)
	if string(got) != "hello world" {
		t.Fatalf("payload %q", got)
	}
}

func TestAUNonConsecutiveStartsNewPacket(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{Combine: true, CombineTimer: true})
	localFrame := mem.PFN(5)
	r.n0.BindAU(localFrame, idx)
	base := localFrame.Base()
	r.store(base+0, []byte{1, 2, 3, 4})
	r.store(base+100, []byte{5, 6, 7, 8}) // gap: new packet
	r.eng.RunAll()
	if r.n0.PacketsOut != 2 {
		t.Fatalf("want 2 packets, got %d", r.n0.PacketsOut)
	}
	if got := r.read(mem.PFN(10).Base(), 4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("first packet payload %v", got)
	}
	if got := r.read(mem.PFN(10).Base()+100, 4); !bytes.Equal(got, []byte{5, 6, 7, 8}) {
		t.Fatalf("second packet payload %v", got)
	}
}

func TestAUCombineTimerFlushes(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{Combine: true, CombineTimer: true})
	r.n0.BindAU(5, idx)
	var arrivedAt sim.Time
	r.eng.Spawn("watch", func(p *sim.Proc) {
		sim.WaitAny(p, 0, r.m1.Mem.PageCond(10))
		arrivedAt = p.Now()
	})
	r.eng.Spawn("writer", func(p *sim.Proc) {
		r.store(mem.PFN(5).Base(), []byte{9, 9, 9, 9})
	})
	r.eng.RunAll()
	if arrivedAt == 0 {
		t.Fatal("timer never flushed the packet")
	}
	// The flush path includes the combine timeout.
	if arrivedAt.Sub(0) < hw.CombineTimeout {
		t.Fatalf("arrived before combine timeout: %v", arrivedAt)
	}
}

func TestAUCombineStopsAtPacketLimit(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{Combine: true, CombineTimer: true})
	r.n0.BindAU(5, idx)
	// Write 2.5 packet payloads in one burst.
	n := hw.MaxPacketPayload*2 + hw.MaxPacketPayload/2
	r.store(mem.PFN(5).Base(), make([]byte, n))
	r.eng.RunAll()
	if r.n0.PacketsOut != 3 {
		t.Fatalf("want 3 packets for %d bytes, got %d", n, r.n0.PacketsOut)
	}
}

func TestAUWithoutCombineSendsPerWrite(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{Combine: false})
	r.n0.BindAU(5, idx)
	base := mem.PFN(5).Base()
	r.store(base, []byte{1, 2, 3, 4})
	r.store(base+4, []byte{5, 6, 7, 8}) // consecutive, but combining off
	r.eng.RunAll()
	if r.n0.PacketsOut != 2 {
		t.Fatalf("non-combining page produced %d packets, want 2", r.n0.PacketsOut)
	}
}

func TestUnboundPagesNotSnooped(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{Combine: true, CombineTimer: true})
	r.n0.BindAU(5, idx)
	r.n0.BindAU(7, idx)
	r.n0.UnbindAU(7)
	r.store(mem.PFN(6).Base(), []byte{1, 2, 3, 4}) // never bound
	r.store(mem.PFN(7).Base(), []byte{1, 2, 3, 4}) // bound, then unbound
	r.eng.RunAll()
	if r.n0.PacketsOut != 0 {
		t.Fatal("store to unbound page generated traffic")
	}
}

func TestUnbindFlushesOpenPacket(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{Combine: true, CombineTimer: false})
	r.n0.BindAU(5, idx)
	r.store(mem.PFN(5).Base(), []byte{1, 2, 3, 4})
	r.n0.UnbindAU(5)
	r.eng.RunAll()
	if r.n0.PacketsOut != 1 {
		t.Fatalf("open packet lost on unbind: %d packets", r.n0.PacketsOut)
	}
}

func TestProtectionFaultFreezesAndInterrupts(t *testing.T) {
	r := newRig(t)
	destFrame := mem.PFN(10)
	idx := r.bind(destFrame, OPTEntry{})
	r.n1.SetIPT(destFrame, IPTEntry{Enable: false}) // revoke
	var fault ProtectionFault
	gotIRQ := false
	r.m1.RegisterIRQ(VecProtection, func(data any) {
		fault = data.(ProtectionFault)
		gotIRQ = true
	})
	r.eng.Spawn("sender", func(p *sim.Proc) {
		job := r.n0.SubmitDU([]DUChunk{MakeDUChunk(0x5000, idx, 0, 64, false)})
		job.Wait(p)
	})
	r.eng.RunAll()
	if !gotIRQ {
		t.Fatal("no protection interrupt")
	}
	if fault.Frame != destFrame || fault.Src != 0 {
		t.Fatalf("fault = %+v", fault)
	}
	if !r.n1.Frozen() {
		t.Fatal("receive path should freeze")
	}
	if r.n1.PacketsIn != 0 {
		t.Fatal("packet delivered despite disabled IPT")
	}
	// Re-enable and unfreeze: the held packet is retried and delivered.
	r.n1.SetIPT(destFrame, IPTEntry{Enable: true})
	r.n1.Unfreeze(false)
	r.eng.RunAll()
	if r.n1.PacketsIn != 1 {
		t.Fatal("held packet not retried after unfreeze")
	}
}

func TestUnfreezeDrop(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{})
	r.n1.SetIPT(10, IPTEntry{Enable: false})
	r.m1.RegisterIRQ(VecProtection, func(any) {})
	r.eng.Spawn("sender", func(p *sim.Proc) {
		r.n0.SubmitDU([]DUChunk{MakeDUChunk(0x5000, idx, 0, 64, false)}).Wait(p)
	})
	r.eng.RunAll()
	r.n1.Unfreeze(true) // drop the offender
	r.eng.RunAll()
	if r.n1.PacketsIn != 0 || r.n1.Frozen() {
		t.Fatal("drop-unfreeze misbehaved")
	}
}

func TestNotificationNeedsBothFlags(t *testing.T) {
	cases := []struct {
		senderFlag, receiverFlag, want bool
	}{
		{false, false, false},
		{true, false, false},
		{false, true, false},
		{true, true, true},
	}
	for _, c := range cases {
		r := newRig(t)
		destFrame := mem.PFN(10)
		idx := r.bind(destFrame, OPTEntry{})
		r.n1.SetIPT(destFrame, IPTEntry{Enable: true, Interrupt: c.receiverFlag, Tag: 7})
		got := false
		r.m1.RegisterIRQ(VecNotify, func(data any) {
			n := data.(*Notify)
			if n.Tag != 7 {
				t.Errorf("tag = %v", n.Tag)
			}
			got = true
		})
		r.eng.Spawn("sender", func(p *sim.Proc) {
			r.n0.SubmitDU([]DUChunk{MakeDUChunk(0x5000, idx, 0, 64, c.senderFlag)}).Wait(p)
		})
		r.eng.RunAll()
		if got != c.want {
			t.Errorf("sender=%v receiver=%v: interrupt=%v want %v",
				c.senderFlag, c.receiverFlag, got, c.want)
		}
	}
}

func TestDUBandwidthApproaches23MBs(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{})
	const total = 256 * 1024
	var start, end sim.Time
	r.eng.Spawn("sender", func(p *sim.Proc) {
		start = p.Now()
		var chunks []DUChunk
		off := 0
		for off < total {
			n := hw.MaxPacketPayload
			// Destination wraps within one page for this raw test.
			chunks = append(chunks, MakeDUChunk(mem.PA(0x4000), idx, uint32(off%hw.Page), n, false))
			off += n
		}
		job := r.n0.SubmitDU(chunks)
		job.Wait(p)
	})
	r.eng.Spawn("drain", func(p *sim.Proc) {
		for r.n1.PacketsIn < int64(total/hw.MaxPacketPayload) {
			p.Sleep(100 * time.Microsecond)
		}
		end = p.Now()
	})
	r.eng.RunAll()
	mbps := float64(total) / end.Sub(start).Seconds() / 1e6
	// The raw engine pipeline runs near the EISA streaming rate; the
	// end-to-end ~23 MB/s of the paper emerges after per-packet setup
	// and protocol costs (checked in the bench package).
	if mbps < 22 || mbps > 26.5 {
		t.Fatalf("raw DU pipeline bandwidth %.1f MB/s, want ~22-26.5", mbps)
	}
}

func TestQuiesceWaitsForDrain(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{Combine: true, CombineTimer: false})
	r.n0.BindAU(5, idx)
	r.store(mem.PFN(5).Base(), []byte{1, 2, 3, 4}) // open packet, no timer
	if r.n0.OutgoingIdle() {
		t.Fatal("open packet should not be idle")
	}
	var quiesced sim.Time
	r.eng.Spawn("daemon", func(p *sim.Proc) {
		r.n0.Quiesce(p)
		quiesced = p.Now()
		if !r.n0.OutgoingIdle() {
			t.Error("not idle after quiesce")
		}
	})
	r.eng.RunAll()
	if quiesced == 0 && r.n0.PacketsOut != 1 {
		t.Fatal("quiesce lost the packet")
	}
}

func TestArbiterIncomingPriority(t *testing.T) {
	// The arbiter shares the NIC port "with incoming given absolute
	// priority": an outgoing packet that becomes ready while the incoming
	// DMA engine is moving a packet must wait for the receive path to
	// drain before it is injected.
	r := newRig(t)
	fwd := r.bind(10, OPTEntry{}) // node0 -> node1
	back, err := r.n1.AllocOPT(1) // node1 -> node0
	if err != nil {
		t.Fatal(err)
	}
	r.n1.SetOPT(back, OPTEntry{Valid: true, DstNode: 0, DstPFN: 20})
	r.n0.SetIPT(20, IPTEntry{Enable: true})

	var inDoneAt, replyAt sim.Time
	r.eng.Spawn("burst", func(p *sim.Proc) {
		// One full-size packet: occupies node 1's incoming path for
		// IPT check + DMA setup + ~1KB of EISA time (tens of us).
		r.n0.SubmitDU([]DUChunk{MakeDUChunk(0x4000, fwd, 0, hw.MaxPacketPayload, false)}).Wait(p)
	})
	r.eng.Spawn("reply", func(p *sim.Proc) {
		// Become ready to inject while that incoming DMA is in flight.
		p.Sleep(48 * time.Microsecond)
		if r.n1.IncomingIdle() {
			t.Error("test premise broken: incoming path already idle")
		}
		r.n1.SubmitDU([]DUChunk{MakeDUChunk(0x4000, back, 0, 64, false)}).Wait(p)
	})
	r.eng.Spawn("watch", func(p *sim.Proc) {
		for r.n1.PacketsIn < 1 {
			p.Sleep(time.Microsecond)
		}
		inDoneAt = p.Now()
		for r.n0.PacketsIn < 1 {
			p.Sleep(time.Microsecond)
		}
		replyAt = p.Now()
	})
	r.eng.RunAll()
	if inDoneAt == 0 || replyAt == 0 {
		t.Fatal("traffic incomplete")
	}
	// The reply must leave node 1 only after its incoming packet
	// finished: its arrival at node 0 is therefore strictly later.
	if replyAt <= inDoneAt {
		t.Fatalf("reply arrived at %v, before incoming completed at %v — priority not honored", replyAt, inDoneAt)
	}
}

func TestCombineTimerRearms(t *testing.T) {
	// A second consecutive write inside the combine window re-arms the
	// flush timer: the packet leaves one timeout after the LAST write.
	r := newRig(t)
	idx := r.bind(10, OPTEntry{Combine: true, CombineTimer: true})
	r.n0.BindAU(5, idx)
	base := mem.PFN(5).Base()
	var arrival sim.Time
	r.eng.Spawn("watch", func(p *sim.Proc) {
		sim.WaitAny(p, 0, r.m1.Mem.PageCond(10))
		arrival = p.Now()
	})
	gap := hw.CombineTimeout / 2
	var second sim.Time
	r.eng.Spawn("writer", func(p *sim.Proc) {
		r.store(base, []byte{1, 2, 3, 4})
		p.Sleep(gap)
		r.store(base+4, []byte{5, 6, 7, 8})
		second = p.Now()
	})
	r.eng.RunAll()
	if r.n0.PacketsOut != 1 {
		t.Fatalf("re-armed combine should still yield 1 packet, got %d", r.n0.PacketsOut)
	}
	// The flush fires CombineTimeout after the SECOND write; arrival is
	// that plus the wire path, so strictly more than timeout past it.
	if arrival.Sub(second) < hw.CombineTimeout {
		t.Fatalf("flush not re-armed: arrival %v only %v after last write", arrival, arrival.Sub(second))
	}
	got := r.read(mem.PFN(10).Base(), 8)
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("combined payload %v", got)
	}
}

func TestAUPageBoundarySplitsPackets(t *testing.T) {
	// A store burst crossing a page boundary targets two different OPT
	// entries (per-page bindings) and must become at least two packets,
	// each delivered to its own destination page.
	r := newRig(t)
	idxA := r.bind(10, OPTEntry{Combine: true, CombineTimer: true})
	idxB := r.bind(11, OPTEntry{Combine: true, CombineTimer: true})
	r.n0.BindAU(5, idxA)
	r.n0.BindAU(6, idxB)
	start := mem.PFN(5).Base() + hw.Page - 8
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	r.store(start, payload)
	r.eng.RunAll()
	if r.n0.PacketsOut != 2 {
		t.Fatalf("page-crossing burst produced %d packets, want 2", r.n0.PacketsOut)
	}
	if got := r.read(mem.PFN(10).Base()+hw.Page-8, 8); !bytes.Equal(got, payload[:8]) {
		t.Fatalf("first page tail %v", got)
	}
	if got := r.read(mem.PFN(11).Base(), 8); !bytes.Equal(got, payload[8:]) {
		t.Fatalf("second page head %v", got)
	}
}
