package nic

import (
	"testing"

	"shrimp/internal/mem"
)

// auRound drives one automatic-update store through the combining snoop,
// the packetizer, the port, the mesh and the receiving NIC's DMA, and runs
// the simulation until it lands.
func (r *rig) auRound(t testing.TB, data []byte) func() {
	idx := r.bind(10, OPTEntry{Combine: true, CombineTimer: true})
	r.n0.BindAU(5, idx)
	src, dst := mem.PFN(5).Base()+64, mem.PFN(10).Base()+64
	return func() {
		r.store(src, data)
		r.eng.RunAll()
		if r.m1.Mem.U32(dst) != r.m0.Mem.U32(src) {
			t.Fatal("store did not arrive")
		}
	}
}

// duRound drives one deliberate-update job of the given chunks through the
// DU engine to the receiving NIC.
func (r *rig) duRound(t testing.TB, chunks int) func() {
	idx := r.bind(10, OPTEntry{})
	job := make([]DUChunk, chunks)
	for i := range job {
		job[i] = MakeDUChunk(mem.PA(0x4000+i*256), idx, uint32(i*256), 256, false)
	}
	return func() {
		j := r.n0.SubmitDU(job)
		r.eng.RunAll()
		if !j.ReadDone() {
			t.Fatal("DU job never read its source")
		}
	}
}

// Once warm, an AU packet's whole trip — snoop, combine timer, packetizer,
// injection, mesh, incoming DMA — allocates nothing.
func TestAUPacketPathAllocFree(t *testing.T) {
	r := newRig(t)
	round := r.auRound(t, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	round() // warm the pools, queues and the combine timer handle
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("%v allocs per AU packet, want 0", allocs)
	}
	if got := r.n1.PacketsIn; got != 102 {
		t.Fatalf("%d packets in, want 102", got)
	}
}

// A DU chunk's trip allocates nothing either. SubmitDU hands its caller a
// job handle with its own completion cond (two allocations per job, owned
// by the caller); the per-chunk datapath adds none, so a one-chunk and an
// eight-chunk job cost the same.
func TestDUChunkPathAllocFree(t *testing.T) {
	const perJob = 2 // the *DUJob and its done Cond
	for _, chunks := range []int{1, 8} {
		r := newRig(t)
		round := r.duRound(t, chunks)
		round()
		if allocs := testing.AllocsPerRun(100, round); allocs != perJob {
			t.Fatalf("%d-chunk job: %v allocs, want %d (the job handle only)", chunks, allocs, perJob)
		}
	}
}

// A sender that resubmits its finished job handle pays nothing per
// transfer: the handle, its cond and its chunk list are reused.
func TestDUResubmitAllocFree(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{})
	chunks := make([]DUChunk, 8)
	for i := range chunks {
		chunks[i] = MakeDUChunk(mem.PA(0x4000+i*256), idx, uint32(i*256), 256, false)
	}
	job := r.n0.SubmitDU(chunks)
	r.eng.RunAll()
	round := func() {
		r.n0.ResubmitDU(job, chunks)
		if job.ReadDone() {
			t.Fatal("resubmitted job already marked done")
		}
		r.eng.RunAll()
		if !job.ReadDone() {
			t.Fatal("DU job never read its source")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("%v allocs per resubmitted job, want 0", allocs)
	}
}

// BenchmarkPacketPath times one AU packet from a CPU store on node 0 to
// its DMA into node 1's memory.
func BenchmarkPacketPath(b *testing.B) {
	r := newRig(b)
	round := r.auRound(b, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// A board with a completion pending in any datapath slot (packetizer,
// port, DU engine, incoming DMA) is not idle. Steps a DU transfer and an
// AU store one nanosecond at a time and checks every slot at every instant.
func TestIdleCoversPendingSlots(t *testing.T) {
	r := newRig(t)
	idx := r.bind(10, OPTEntry{})
	r.n0.BindAU(5, idx)
	r.n0.SubmitDU([]DUChunk{
		MakeDUChunk(0x4000, idx, 0, 256, false),
		MakeDUChunk(0x4100, idx, 256, 256, false),
	})
	r.store(mem.PFN(5).Base()+1024, []byte{1, 2, 3, 4})
	seen := map[string]bool{}
	for !r.eng.Idle() {
		r.eng.Run(r.eng.Now() + 1)
		for _, n := range []*NIC{r.n0, r.n1} {
			for _, s := range []struct {
				slot string
				busy bool
			}{
				{"packetize", n.pktz.len() > 0},
				{"inject", n.injectPkt != nil},
				{"du", n.duJob != nil},
				{"incoming", n.inPkt != nil},
			} {
				if !s.busy {
					continue
				}
				seen[s.slot] = true
				if n.OutgoingIdle() && n.IncomingIdle() {
					t.Fatalf("at %v: node %d idle with its %s slot busy", r.eng.Now(), n.ID, s.slot)
				}
			}
		}
	}
	for _, slot := range []string{"packetize", "inject", "du", "incoming"} {
		if !seen[slot] {
			t.Errorf("the transfer never occupied the %s slot; the test lost its coverage", slot)
		}
	}
	for _, n := range []*NIC{r.n0, r.n1} {
		if !n.OutgoingIdle() || !n.IncomingIdle() {
			t.Fatalf("drained node %d not idle", n.ID)
		}
	}
}
