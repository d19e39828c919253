// Package nic models the custom SHRIMP network interface (paper Section 3.2,
// Figure 2). The board sits on both the Xpress memory bus (snoop logic) and
// the EISA expansion bus (everything else) and implements, in hardware, the
// mechanisms VMMC needs:
//
//   - an Outgoing Page Table (OPT) holding bindings to remote destination
//     pages, indexed directly by page number;
//   - snoop logic that watches CPU writes: a write to a page with an
//     automatic-update binding is packetized, with consecutive writes
//     combined into one packet and a hardware timer to flush idle packets;
//   - a Deliberate Update Engine that interprets the two-access transfer
//     initiation sequence and DMAs source data from main memory over EISA;
//   - an outgoing FIFO and an arbiter that shares the network-interface
//     chip's port between outgoing and incoming transfers, incoming having
//     priority;
//   - an Incoming Page Table (IPT) with an entry per page of memory: a
//     receive-enable flag (violations freeze the receive path and interrupt
//     the CPU) and a receiver-interrupt flag; and
//   - an Incoming DMA Engine that writes packet payloads to main memory over
//     EISA, raising a notification interrupt when both the sender-specified
//     packet flag and the receiver-specified IPT flag are set.
package nic

import (
	"fmt"
	"time"

	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/mem"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
)

// Interrupt vectors raised to the node CPU.
const (
	VecProtection = 1 // receive to a non-enabled page; receive path frozen
	VecNotify     = 2 // notification interrupt (sender flag ∧ receiver flag)
)

// ProtectionFault is the data handed to the VecProtection IRQ handler.
type ProtectionFault struct {
	Frame mem.PFN
	Src   mesh.NodeID
	// Forced marks a spurious fault injected by ForceFault (fault
	// injection): the held head-of-queue packet, if any, is innocent and
	// must be retried, not dropped.
	Forced bool
}

// Notify is the data handed to the VecNotify IRQ handler, by pointer. The
// record belongs to the NIC that raised it: the handler calls Release once
// it has read the fields, and the NIC reuses it for a later notification.
type Notify struct {
	Frame mem.PFN
	Tag   int32 // the page's IPT tag (IPTEntry.Tag)
	Src   mesh.NodeID
	nic   *NIC
}

// Release hands the record back to its NIC. A second Release, or one of a
// record no NIC raised, does nothing.
func (nt *Notify) Release() {
	if n := nt.nic; n != nil {
		*nt = Notify{}
		n.freeNotes = append(n.freeNotes, nt)
	}
}

// OPTEntry is one outgoing page-table entry: a binding to a remote page.
type OPTEntry struct {
	Valid   bool
	DstNode mesh.NodeID
	DstPFN  mem.PFN // destination page on the remote node
	// Combine enables write-combining of consecutive automatic updates.
	Combine bool
	// CombineTimer enables the flush timeout for an open combined packet.
	CombineTimer bool
	// NotifyOnArrival sets the sender-interrupt flag in generated packet
	// headers (destination interrupt requested).
	NotifyOnArrival bool
}

// IPTEntry is one incoming page-table entry. It holds no pointer, so a
// table's chunks cost 2KB each and carry nothing of their world into
// mem's free list (Release).
type IPTEntry struct {
	// Enable permits the network interface to DMA into the page.
	Enable bool
	// Interrupt is the receiver-specified notification flag.
	Interrupt bool
	// FastNotify, with Interrupt, delivers notifications active-message
	// style: the interface appends a record to a user-level queue
	// instead of interrupting the CPU (the paper's planned
	// reimplementation of notifications, Section 2.3).
	FastNotify bool
	// Tag names the export covering this page for the notification
	// path: an index into the daemon's table of notification targets,
	// 0 for none. Opaque to the hardware model.
	Tag int32
}

// DUChunk is one packet-sized piece of a deliberate update, produced by the
// VMMC layer after translation and page splitting (the "thin layer" software
// builds these descriptors from the two-access initiation sequence).
type DUChunk struct {
	SrcPA  mem.PA
	OPTIdx int
	DstOff uint32 // offset within the destination page
	N      int
	Notify bool // request destination interrupt (last chunk of a send)
}

// DUJob is a queued deliberate-update transfer.
type DUJob struct {
	chunks   []DUChunk
	readDone bool
	done     *sim.Cond
}

// outPacket is a packet being assembled or queued for injection. Records
// are pooled on the NIC (outFree): one is taken when the snoop opens a
// packet or a DU chunk's source read completes, and returned once the
// injection that consumes it completes.
type outPacket struct {
	optIdx int
	dstOff uint32
	data   []byte
	notify bool
}

// NIC is one node's SHRIMP network interface.
type NIC struct {
	M   *kernel.Machine
	Net *mesh.Network
	ID  mesh.NodeID

	// freeNotes holds released Notify records for the next VecNotify.
	freeNotes []*Notify

	// opt is the outgoing page table and optUsed its AllocOPT
	// reservations. Both grow on demand, in step, up to optCap entries:
	// an index at or past their length is an invalid, free entry. A
	// board programs only the imports its node uses, so eagerly zeroing
	// the full table for every NIC of every world would dominate setup.
	opt     []OPTEntry
	optUsed []bool
	optCap  int
	// ipt is the incoming page table, demand-allocated: an absent entry
	// reads as disabled. One entry per local frame would be a 10k-entry
	// pointer-bearing slab per NIC; real workloads program only a handful
	// of pages. A frame's AU binding is its snoop tag in the memory (the
	// bound OPT index plus one).
	ipt      mem.Sparse[IPTEntry]
	iptPages int // total local frames the table covers

	// Snoop combining state: at most one open packet (the hardware
	// combines only temporally-consecutive writes). combineTime is built
	// on the first arm and re-armed with Reset ever after.
	open        *outPacket
	openLastPA  mem.PA
	combineTime *sim.Timer

	// pktz holds the packets inside the packetizer pipeline stage, in
	// arrival order. Every packet spends the same hw.PacketizeCost there,
	// so completions fire in the order they were posted and each one
	// (packetizeDone) takes the head.
	pktz fifo[*outPacket]

	// Outgoing FIFO: packets whose headers are formed, waiting to inject.
	outQ fifo[*outPacket]
	// injectPkt is the packet crossing the NIC port, nil when the port's
	// outgoing side is free. At most one injection is in flight (a
	// non-nil slot gates kickInject), so its completion event needs no
	// record of its own: injectDone reads the slot.
	injectPkt *outPacket

	// outFree pools outPacket records (see outPacket).
	outFree []*outPacket

	// The NIC port shared by outgoing and incoming transfers.
	port sim.Server

	// EISA bus: shared by the DU engine's source reads and the incoming
	// DMA engine's writes.
	eisa sim.Server

	// Deliberate Update Engine. duJob is the job being transferred (nil
	// when the engine is idle) and duIdx the chunk whose source DMA is in
	// flight; the engine moves one chunk at a time, so duChunkDone reads
	// the slot.
	duQ   fifo[*DUJob]
	duJob *DUJob
	duIdx int

	// Incoming path. inPkt is the packet under incoming DMA, nil when the
	// engine is free; one transfer at a time, so incomingDone reads the
	// slot.
	inQ    fifo[*mesh.Packet]
	inPkt  *mesh.Packet
	frozen bool

	// The datapath's event callbacks, built once in New so posting one
	// allocates nothing.
	packetizeDone, injectDone, duChunkDone, incomingDone, combineExpire func()

	// Fault-injection state: outStalled blocks the outgoing arbiter (an
	// injected EISA/port stall); dead means the node crashed and the
	// board does nothing ever again.
	outStalled bool
	dead       bool

	// idleCond is broadcast whenever the outgoing side may have drained;
	// used by Quiesce (unexport/unimport wait for pending messages).
	idleCond *sim.Cond

	// FastNotifyHook receives active-message-style notifications (set by
	// the daemon at boot; nil falls back to the interrupt path).
	FastNotifyHook func(tag int32, src mesh.NodeID)

	// Stats.
	PacketsOut, PacketsIn int64
	Faults                int64
	// ForcedFaults counts injected (spurious) protection faults and
	// OutStalls injected outgoing stalls; OutQPeak is the outgoing FIFO's
	// high-water mark — overflow pressure under an injected stall shows up
	// here.
	ForcedFaults, OutStalls int64
	OutQPeak                int

	// track is this NIC's observability track name ("node3/nic"),
	// precomputed so instrumentation never formats strings on the datapath.
	track string
}

// New creates a NIC with the given number of OPT entries, attaches it to the
// backplane, and hooks the node's memory bus snoop.
func New(m *kernel.Machine, net *mesh.Network, id mesh.NodeID, optEntries int) *NIC {
	n := &NIC{
		M:        m,
		Net:      net,
		ID:       id,
		optCap:   optEntries,
		iptPages: m.Mem.Pages(),
		port:     sim.MakeServer(m.Eng),
		eisa:     sim.MakeServer(m.Eng),
		idleCond: sim.NewCond(m.Eng),
		track:    m.Track("nic"),
	}
	n.packetizeDone = n.finishPacketize
	n.injectDone = n.finishInject
	n.duChunkDone = n.finishDUChunk
	n.incomingDone = n.finishIncoming
	n.combineExpire = n.flushOnTimeout
	net.Attach(id, n.incoming)
	m.Mem.SetSnoop(n.snoop)
	return n
}

// --- OPT management (performed by the trusted daemon) ---

// AllocOPT finds base..base+n-1 contiguous free OPT entries and reserves
// them. Contiguity is what lets the deliberate-update initiation address a
// multi-page import with one index.
func (n *NIC) AllocOPT(count int) (int, error) {
	run := 0
	for i := 0; i < n.optCap; i++ {
		if i < len(n.optUsed) && n.optUsed[i] {
			run = 0
			continue
		}
		run++
		if run == count {
			base := i - count + 1
			n.growOPT(i)
			for j := base; j <= i; j++ {
				n.optUsed[j] = true
			}
			return base, nil
		}
	}
	return 0, fmt.Errorf("nic: out of OPT entries (%d requested)", count)
}

// growOPT extends the demand-grown table to cover index idx.
func (n *NIC) growOPT(idx int) {
	if idx < 0 || idx >= n.optCap {
		panic(fmt.Sprintf("nic: OPT index %d outside the %d-entry table", idx, n.optCap)) //lint:allow transitive-panic hardware assertion: OPT indices come from AllocOPT
	}
	if grow := idx + 1 - len(n.opt); grow > 0 {
		n.opt = append(n.opt, make([]OPTEntry, grow)...)
		n.optUsed = append(n.optUsed, make([]bool, grow)...)
	}
}

// FreeOPT releases entries and invalidates them.
func (n *NIC) FreeOPT(base, count int) {
	for i := base; i < base+count && i < len(n.opt); i++ {
		n.opt[i] = OPTEntry{}
		n.optUsed[i] = false
	}
}

// SetOPT programs an entry (memory-mapped I/O from the daemon).
func (n *NIC) SetOPT(idx int, e OPTEntry) {
	n.growOPT(idx)
	n.opt[idx] = e
}

// GetOPT reads an entry back.
func (n *NIC) GetOPT(idx int) OPTEntry {
	if idx < len(n.opt) {
		return n.opt[idx]
	}
	return OPTEntry{}
}

// OPTSize returns the table capacity.
func (n *NIC) OPTSize() int { return n.optCap }

// --- IPT management ---

// SetIPT programs the incoming page-table entry for a local frame.
func (n *NIC) SetIPT(f mem.PFN, e IPTEntry) { *n.ipt.W(int(f)) = e }

// Release hands the incoming page table's chunks to mem's free list for
// the next world's boards (mem.Sparse.Release). Call it once the board can
// never receive again (cluster.Cluster.Shutdown); every entry then reads as
// disabled. A second call is a no-op.
func (n *NIC) Release() { n.ipt.Release() }

// GetIPT reads the entry for a frame.
func (n *NIC) GetIPT(f mem.PFN) IPTEntry {
	if e := n.ipt.Get(int(f)); e != nil {
		return *e
	}
	return IPTEntry{}
}

// --- Automatic update bindings ---

// BindAU binds a local frame to OPT entry idx: subsequent CPU stores to the
// frame are snooped and packetized toward the entry's destination page. The
// binding is the frame's snoop tag, idx+1.
func (n *NIC) BindAU(localFrame mem.PFN, idx int) {
	if !n.GetOPT(idx).Valid {
		panic("nic: BindAU to invalid OPT entry") //lint:allow transitive-panic hardware assertion: the daemon re-validates the import after its charged syscall time, so an invalid entry here is a daemon bug
	}
	n.M.Mem.SetSnooped(localFrame, int32(idx)+1)
}

// UnbindAU removes a frame's automatic-update binding, flushing any open
// combined packet for it first.
func (n *NIC) UnbindAU(localFrame mem.PFN) {
	if tag := n.M.Mem.Snooped(localFrame); tag != 0 && n.open != nil && n.open.optIdx == int(tag-1) {
		n.flushOpen()
	}
	n.M.Mem.SetSnooped(localFrame, 0)
}

// --- Snoop logic / automatic update outgoing path ---

// snoop observes one CPU store fragment in a bound frame (mem guarantees
// page-local fragments); tag is the frame's binding, its OPT index plus one.
func (n *NIC) snoop(pa mem.PA, tag int32, data []byte) {
	if n.dead {
		return
	}
	idx := int(tag - 1)
	e := n.opt[idx]
	if !e.Valid {
		return
	}
	// Try to append to the open combined packet.
	if n.open != nil {
		if e.Combine && n.open.optIdx == idx && pa == n.openLastPA &&
			len(n.open.data)+len(data) <= hw.MaxPacketPayload {
			n.open.data = append(n.open.data, data...)
			n.openLastPA = pa + mem.PA(len(data))
			n.M.Trace.Count(n.track, "combine.hit", 1)
			n.armCombineTimer(e)
			return
		}
		n.M.Trace.Count(n.track, "combine.miss", 1)
		n.flushOpen()
	}
	// Start a new packet. Oversized bursts split at the packet payload
	// limit (the hardware starts a fresh packet when one fills).
	for len(data) > 0 {
		take := len(data)
		if take > hw.MaxPacketPayload {
			take = hw.MaxPacketPayload
		}
		op := n.getOut()
		op.optIdx = idx
		op.dstOff = uint32(pa % hw.Page)
		op.data = append(n.Net.GetBuf(), data[:take]...)
		op.notify = e.NotifyOnArrival
		n.open = op
		n.openLastPA = pa + mem.PA(take)
		data = data[take:]
		pa += mem.PA(take)
		if len(data) > 0 || !e.Combine {
			n.flushOpen()
		}
	}
	if n.open != nil {
		n.armCombineTimer(e)
	}
}

func (n *NIC) armCombineTimer(e OPTEntry) {
	if !e.CombineTimer {
		// No timer: the packet waits for a non-consecutive write or an
		// explicit flush. (Libraries using combining always enable the
		// timer; this mode exists for testing the hardware behaviour.)
		if n.combineTime != nil {
			n.combineTime.Stop()
		}
		return
	}
	if n.combineTime == nil {
		n.combineTime = n.M.Eng.Schedule(hw.CombineTimeout, n.combineExpire)
		return
	}
	// Pending or not, Reset cancels any old deadline and posts the new
	// one exactly as a fresh Schedule would.
	n.combineTime.Reset(hw.CombineTimeout)
}

// flushOnTimeout is the combine timer: the open packet sat idle too long.
func (n *NIC) flushOnTimeout() {
	n.M.Trace.Count(n.track, "combine.timeout", 1)
	n.flushOpen()
}

// flushOpen closes the open combined packet and sends it to the packetizer.
func (n *NIC) flushOpen() {
	if n.open == nil {
		return
	}
	pkt := n.open
	n.open = nil
	if n.combineTime != nil {
		n.combineTime.Stop()
	}
	n.packetize(pkt)
}

// FlushAU forces out any open combined packet (used by Quiesce).
func (n *NIC) FlushAU() { n.flushOpen() }

// packetize charges header-formation time, then queues in the outgoing FIFO.
func (n *NIC) packetize(pkt *outPacket) {
	n.pktz.push(pkt)
	if tc := n.M.Trace; tc != nil {
		now := n.M.Eng.Now()
		tc.Add(n.track, "packetize", now, now.Add(hw.PacketizeCost))
		tc.Observe(n.track, "payload.bytes", int64(len(pkt.data)))
	}
	n.M.Eng.Post(hw.PacketizeCost, n.packetizeDone)
}

// finishPacketize moves the packetizer's oldest packet, whose header is now
// formed, into the outgoing FIFO.
func (n *NIC) finishPacketize() {
	if n.dead {
		return
	}
	n.outQ.push(n.pktz.pop())
	if n.outQ.len() > n.OutQPeak {
		n.OutQPeak = n.outQ.len()
	}
	n.M.Trace.Gauge(n.track, "outq", int64(n.outQ.len()))
	n.kickInject()
}

// maxFreeOut caps the outPacket pool, as maxFreeBufs caps the mesh's
// payload pool: a FIFO that backed up under an injected stall returns its
// whole backlog at once.
const maxFreeOut = 256

// getOut takes a cleared outPacket record from the pool.
func (n *NIC) getOut() *outPacket {
	if l := len(n.outFree); l > 0 {
		op := n.outFree[l-1]
		n.outFree[l-1] = nil
		n.outFree = n.outFree[:l-1]
		return op
	}
	return &outPacket{}
}

// putOut clears a spent record and returns it to the pool.
func (n *NIC) putOut(op *outPacket) {
	*op = outPacket{}
	if len(n.outFree) < maxFreeOut {
		n.outFree = append(n.outFree, op)
	}
}

// kickInject drains the outgoing FIFO through the shared NIC port. The
// arbiter gives incoming transfers absolute priority (paper Section 3.2):
// while the incoming side is moving packets, outgoing injection stalls and
// resumes when the receive path drains.
func (n *NIC) kickInject() {
	if n.dead || n.outStalled || n.injectPkt != nil || n.outQ.len() == 0 {
		return
	}
	if n.inPkt != nil || n.inQ.len() > 0 {
		return // arbiter: incoming has the port; retried on drain
	}
	n.injectPkt = n.outQ.pop()
	start, end := n.port.Reserve(hw.NICInjectCost)
	n.M.Trace.Add(n.track, "inject", start, end)
	n.M.Eng.PostAt(end, n.injectDone)
}

// finishInject hands the packet on the port to the backplane.
func (n *NIC) finishInject() {
	if n.dead {
		return
	}
	pkt := n.injectPkt
	e := n.GetOPT(pkt.optIdx)
	if e.Valid {
		n.PacketsOut++
		n.M.Trace.Count(n.track, "packets.out", 1)
		mp := n.Net.GetPacket()
		mp.Src = n.ID
		mp.Dst = e.DstNode
		mp.DstPFN = uint32(e.DstPFN)
		mp.DstOff = pkt.dstOff
		mp.Notify = pkt.notify
		mp.Payload = pkt.data
		mp.Pooled = true
		n.Net.Send(mp)
	} else {
		// Packets to entries invalidated while queued are dropped
		// (the daemon quiesces before invalidating, so this is
		// defensive); their buffer goes back to the pool.
		n.Net.PutBuf(pkt.data)
	}
	n.putOut(pkt)
	n.injectPkt = nil
	n.kickInject()
	n.maybeIdle()
}

// --- Deliberate Update Engine ---

// SubmitDU queues a deliberate-update job built by the VMMC layer. The
// returned job's Wait method blocks until the source data has been read out
// of main memory (the blocking-send completion point). The engine reads
// chunks until then; the caller must not modify them.
func (n *NIC) SubmitDU(chunks []DUChunk) *DUJob {
	job := &DUJob{done: sim.NewCond(n.M.Eng)}
	n.ResubmitDU(job, chunks)
	return job
}

// ResubmitDU queues chunks as a new transfer on a job handle this board
// returned earlier, once that job's source read has completed (ReadDone):
// the engine is done with a job when it marks the read done. Blocking
// senders reuse one handle, its cond and their chunk list this way, so a
// steady-state send allocates nothing.
func (n *NIC) ResubmitDU(job *DUJob, chunks []DUChunk) {
	job.chunks, job.readDone = chunks, false
	if n.dead {
		// The board is gone; complete the job vacuously so a caller that
		// somehow still runs does not park forever.
		job.readDone = true
		return
	}
	n.duQ.push(job)
	n.kickDU()
}

// Wait blocks p until the job's source read completes.
func (j *DUJob) Wait(p *sim.Proc) {
	for !j.readDone {
		j.done.Wait(p)
	}
}

// ReadDone reports whether the source read has completed (non-blocking
// sends poll this).
func (j *DUJob) ReadDone() bool { return j.readDone }

func (n *NIC) kickDU() {
	if n.duJob != nil || n.duQ.len() == 0 {
		return
	}
	n.duJob = n.duQ.pop()
	n.duIdx = 0
	n.runDUChunk()
}

// runDUChunk DMAs chunk duIdx of the current job over the EISA bus (which
// also occupies the memory bus); its completion packetizes the chunk and
// proceeds to the next.
func (n *NIC) runDUChunk() {
	job := n.duJob
	if n.duIdx >= len(job.chunks) {
		job.readDone = true
		job.done.Broadcast()
		n.duJob = nil
		n.kickDU()
		n.maybeIdle()
		return
	}
	c := &job.chunks[n.duIdx]
	setup := hw.DUPerPacketRestart
	if n.duIdx == 0 {
		setup = hw.DUEngineStart
	}
	dur := setup + time.Duration(c.N)*hw.EISADMAPerByte
	dmaStart, eisaEnd := n.eisa.Reserve(dur)
	_, busEnd := n.M.MemBus.ReserveAt(n.M.Eng.Now(), dur)
	end := eisaEnd
	if busEnd > end {
		end = busEnd
	}
	if tc := n.M.Trace; tc != nil {
		tc.Add(n.track, "du.dma", dmaStart, end)
		tc.Observe(n.track, "du.chunk.bytes", int64(c.N))
	}
	n.M.Eng.PostAt(end, n.duChunkDone)
}

// finishDUChunk reads the current chunk's source bytes into a wire buffer
// and packetizes them, then starts the next chunk.
func (n *NIC) finishDUChunk() {
	if n.dead {
		return
	}
	c := &n.duJob.chunks[n.duIdx]
	data := n.Net.GetBuf()[:c.N]
	n.M.Mem.ReadInto(c.SrcPA, data)
	op := n.getOut()
	op.optIdx = c.OPTIdx
	op.dstOff = c.DstOff
	op.data = data
	op.notify = c.Notify || n.GetOPT(c.OPTIdx).NotifyOnArrival
	n.packetize(op)
	n.duIdx++
	n.runDUChunk()
}

// --- Incoming path ---

func (n *NIC) incoming(pkt *mesh.Packet) {
	if n.dead {
		return
	}
	// The arbiter gives incoming transfers absolute priority on the NIC
	// port; charge the port for the packet's pass-through.
	n.port.Reserve(hw.NICInjectCost)
	n.inQ.push(pkt)
	n.kickIncoming()
}

func (n *NIC) kickIncoming() {
	if n.dead || n.inPkt != nil || n.frozen || n.inQ.len() == 0 {
		return
	}
	pkt := n.inQ.peek()
	frame := mem.PFN(pkt.DstPFN)
	if int(frame) >= n.iptPages || !n.GetIPT(frame).Enable {
		// Protection violation: freeze the receive datapath and
		// interrupt the node CPU (paper Section 3.2). The offending
		// packet stays at the head; Unfreeze retries it.
		n.frozen = true
		n.Faults++
		n.M.Trace.Count(n.track, "fault", 1)
		n.M.RaiseIRQ(VecProtection, ProtectionFault{Frame: frame, Src: pkt.Src})
		return
	}

	n.inPkt = n.inQ.pop()
	dur := hw.IPTCheckCost + hw.IncomingDMASetup + time.Duration(len(pkt.Payload))*hw.EISADMAPerByte
	dmaStart, eisaEnd := n.eisa.Reserve(dur)
	_, busEnd := n.M.MemBus.ReserveAt(n.M.Eng.Now(), dur)
	end := eisaEnd
	if busEnd > end {
		end = busEnd
	}
	n.M.Trace.Add(n.track, "in.dma", dmaStart, end)
	n.M.Eng.PostAt(end, n.incomingDone)
}

// finishIncoming lands the packet under DMA in memory and raises its
// notification, if any.
func (n *NIC) finishIncoming() {
	if n.dead {
		return
	}
	pkt := n.inPkt
	frame := mem.PFN(pkt.DstPFN)
	entry := n.GetIPT(frame)
	n.M.Mem.Write(frame.Base()+mem.PA(pkt.DstOff), pkt.Payload)
	src, notify := pkt.Src, pkt.Notify
	// The bytes are in DRAM: a pooled packet's header and wire buffer go
	// back to the backplane's pools for the next outgoing packet.
	n.Net.Recycle(pkt)
	n.PacketsIn++
	n.M.Trace.Count(n.track, "packets.in", 1)
	if notify && entry.Interrupt {
		if entry.FastNotify && n.FastNotifyHook != nil {
			// Append a record to the user-level notification
			// queue — no CPU interrupt.
			tag := entry.Tag
			n.M.Trace.Count(n.track, "notify.fast", 1)
			n.M.Eng.Post(hw.FastNotifyPost, func() { n.FastNotifyHook(tag, src) })
		} else {
			n.M.Trace.Count(n.track, "notify.irq", 1)
			var nt *Notify
			if k := len(n.freeNotes) - 1; k >= 0 {
				nt, n.freeNotes = n.freeNotes[k], n.freeNotes[:k]
			} else {
				nt = new(Notify)
			}
			*nt = Notify{Frame: frame, Tag: entry.Tag, Src: src, nic: n}
			n.M.RaiseIRQ(VecNotify, nt)
		}
	}
	n.inPkt = nil
	n.kickIncoming()
	n.kickInject() // arbiter: outgoing resumes when incoming drains
	n.maybeIdle()
}

// Frozen reports whether the receive path is frozen on a protection fault.
func (n *NIC) Frozen() bool { return n.frozen }

// Unfreeze resumes the receive path (kernel/daemon action after handling a
// protection fault). The faulting packet is retried; if the page is still
// not enabled it faults again. Drop permits discarding it instead.
func (n *NIC) Unfreeze(drop bool) {
	if !n.frozen {
		return
	}
	n.frozen = false
	if drop && n.inQ.len() > 0 {
		n.Net.Recycle(n.inQ.pop())
	}
	n.kickIncoming()
}

// --- Fault injection and crash ---

// ForceFault injects a spurious receive protection fault: the receive
// path freezes and the protection interrupt fires with Forced set, as if
// the IPT lookup had glitched. Arriving packets queue behind the freeze
// (a storm of these is the "receive-freeze storm" fault plan). The
// daemon's handler resumes the path with Unfreeze(false) — the held
// packet is innocent.
func (n *NIC) ForceFault(src mesh.NodeID) {
	if n.dead || n.frozen {
		return
	}
	n.frozen = true
	n.Faults++
	n.ForcedFaults++
	n.M.Trace.Count(n.track, "fault.forced", 1)
	n.M.RaiseIRQ(VecProtection, ProtectionFault{Frame: 0, Src: src, Forced: true})
}

// StallOutgoing blocks the outgoing arbiter for d: nothing injects, so
// packetized data piles up in the outgoing FIFO (overflow pressure,
// observable via OutQPeak) and drains when the stall lifts.
func (n *NIC) StallOutgoing(d time.Duration) {
	if n.dead || n.outStalled {
		return
	}
	n.outStalled = true
	n.OutStalls++
	n.M.Eng.Post(d, func() {
		n.outStalled = false
		if n.dead {
			return
		}
		n.kickInject()
		n.maybeIdle()
	})
}

// Crash kills the board: queues are abandoned, timers stop, and every
// datapath entry point becomes a no-op. Pending DU jobs complete
// vacuously so no survivor parks on them.
func (n *NIC) Crash() {
	if n.dead {
		return
	}
	n.dead = true
	if n.combineTime != nil {
		n.combineTime.Stop()
	}
	n.open = nil
	n.outQ = fifo[*outPacket]{}
	n.inQ = fifo[*mesh.Packet]{}
	n.frozen = false
	n.inPkt = nil
	n.injectPkt = nil
	for n.duQ.len() > 0 {
		job := n.duQ.pop()
		job.readDone = true
		job.done.Broadcast()
	}
	n.duJob = nil
	n.idleCond.Broadcast()
}

// --- Quiescing (unexport/unimport support) ---

func (n *NIC) maybeIdle() {
	if n.OutgoingIdle() || n.IncomingIdle() {
		n.idleCond.Broadcast()
	}
}

// OutgoingIdle reports whether no automatic-update packet is open, the
// packetizer, outgoing FIFO and port are empty, and the DU engine has no
// queued or running work.
func (n *NIC) OutgoingIdle() bool {
	return n.open == nil && n.pktz.len() == 0 && n.outQ.len() == 0 &&
		n.injectPkt == nil && n.duJob == nil && n.duQ.len() == 0
}

// IncomingIdle reports whether the receive path has no queued or in-progress
// packets.
func (n *NIC) IncomingIdle() bool { return n.inPkt == nil && n.inQ.len() == 0 }

// QuiesceIncoming blocks p until the receive path drains.
func (n *NIC) QuiesceIncoming(p *sim.Proc) {
	for !n.IncomingIdle() {
		sim.WaitAny(p, 10*time.Microsecond, n.idleCond)
	}
}

// Quiesce blocks p until the outgoing side drains, flushing any open
// combined packet first. The daemons call this before tearing down
// mappings ("these calls wait for all currently pending messages using the
// mapping to be delivered").
func (n *NIC) Quiesce(p *sim.Proc) {
	n.flushOpen()
	for !n.OutgoingIdle() {
		sim.WaitAny(p, 10*time.Microsecond, n.idleCond)
	}
}

// EISA exposes the EISA bus server (the VMMC layer charges the user-level
// two-access initiation sequence against it).
func (n *NIC) EISA() *sim.Server { return &n.eisa }

// MakeDUChunk builds one deliberate-update chunk.
func MakeDUChunk(srcPA mem.PA, optIdx int, dstOff uint32, n int, notify bool) DUChunk {
	return DUChunk{SrcPA: srcPA, OPTIdx: optIdx, DstOff: dstOff, N: n, Notify: notify}
}
