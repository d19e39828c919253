// Package hw holds the calibrated hardware cost model for the SHRIMP
// prototype described in the paper (Section 3): 60 MHz Pentium nodes on an
// Intel Xpress memory bus, an EISA expansion bus carrying the network
// interface, and the Paragon iMRC mesh routing backplane.
//
// Every virtual-time cost in the simulation comes from this package, so the
// whole model can be audited — and recalibrated — in one place. The
// calibration targets, all taken from the paper's text, are:
//
//   - automatic-update one-word user-to-user latency: 4.75 us (write-through
//     cached), 3.7 us with caching disabled          (Section 3.4)
//   - deliberate-update one-word user-to-user latency: 7.6 us (Section 3.4)
//   - DU-0copy asymptotic bandwidth ~23 MB/s, limited by the aggregate DMA
//     bandwidth of the shared EISA and Xpress buses  (Section 3.4)
//   - automatic update asymptotic bandwidth slightly below deliberate
//     update, limited by the sender's copy           (Section 3.4)
//   - EISA burst bandwidth 33 MB/s; Xpress burst write bandwidth 73 MB/s
//     (Section 3.1) — upper bounds on the effective rates below.
package hw

import "time"

// Page is the virtual-memory page size of the i386/Linux nodes.
const Page = 4096

// WordSize is the transfer granularity the SHRIMP hardware requires for
// deliberate updates: source and destination must be 4-byte aligned.
const WordSize = 4

// MaxPacketPayload is the largest payload the network interface packs into
// one backplane packet. Larger transfers are split; automatic-update
// combining also stops here.
const MaxPacketPayload = 1024

// PacketHeaderBytes is the backplane packet header (destination base
// address, size, flags) used when charging link occupancy.
const PacketHeaderBytes = 16

// AUSegment is the granularity at which the model presents a store stream to
// an AU-bound page to the snoop logic. The hardware snoops every store, so a
// long store burst overlaps its own packetization and delivery; the model
// batches stores in small segments to get the same overlap without per-word
// events. (The combining logic still merges consecutive segments into
// full-size packets.)
const AUSegment = 256

// Rates are expressed as time-per-byte so costs compose linearly.
// rate(mbPerSec) = time to move one byte at that many MB/s.
func perByte(mbPerSec float64) time.Duration {
	return time.Duration(1e9 / (mbPerSec * 1e6) * float64(time.Nanosecond))
}

var (
	// EISADMAPerByte is the raw DMA streaming rate on the EISA bus (both
	// the deliberate-update engine's source reads and the incoming DMA
	// engine's writes): ~26.5 MB/s out of the 33 MB/s burst maximum,
	// after arbitration and refresh overheads. Together with the
	// per-packet setup costs below this yields the ~23 MB/s end-to-end
	// DU-0copy bottleneck the paper reports.
	EISADMAPerByte = perByte(26.5)

	// MemCopyPerByte is the CPU memcpy rate for cached memory with a
	// write-through destination (~24 MB/s on the 60 MHz Pentium/Xpress).
	// Receiver-side copies and staging copies run at this rate.
	MemCopyPerByte = perByte(24.0)

	// AUStorePerByte is the CPU store-stream rate into an automatic-update
	// bound, write-through page (~22 MB/s): slightly slower than a plain
	// memcpy because every store goes to the bus where the snoop logic
	// captures it. This is what caps automatic-update bandwidth below
	// deliberate update's.
	AUStorePerByte = perByte(22.0)

	// MeshLinkPerByte is the iMRC backplane link rate (~175 MB/s); never
	// the bottleneck in the prototype, as the paper notes.
	MeshLinkPerByte = perByte(175.0)

	// EtherPerByte is the 10 Mb/s commodity Ethernet used for bootstrap,
	// daemons, and connection setup (1.25 MB/s).
	EtherPerByte = perByte(1.25)
)

// Fixed per-operation latencies. The one-word budgets that these compose
// into are verified by TestLatencyBudget in params_test.go and by the
// Figure 3 benchmarks.
const (
	// --- Automatic-update outgoing path ---

	// AUSnoopDelay is the visibility delay between a CPU store to a
	// write-through AU-bound page retiring and the written value
	// appearing on the Xpress bus where the snoop logic captures it (the
	// store traverses the cache hierarchy first). It is a latency, not
	// occupancy: a store stream pipelines behind it.
	AUSnoopDelay = 1200 * time.Nanosecond

	// AUUncachedSnoopDelay replaces AUSnoopDelay when the page is mapped
	// uncached: the store bypasses the cache and reaches the bus sooner.
	// (Paper: 3.7 us vs 4.75 us one-word latency.)
	AUUncachedSnoopDelay = 150 * time.Nanosecond

	// CombineTimeout is the outgoing-FIFO hardware timer: an open
	// combining packet is flushed this long after the last snooped write
	// if nothing got appended (Section 3.2).
	CombineTimeout = 300 * time.Nanosecond

	// --- Deliberate-update outgoing path ---

	// DUInitAccess is one user-level programmed-I/O access to the
	// EISA-decoded transfer-initiation registers; a send performs two
	// (Section 2.2: "a sequence of two accesses").
	DUInitAccess = 1200 * time.Nanosecond

	// DUEngineStart is the deliberate-update engine's fixed cost to
	// arbitrate for the EISA bus and start the source DMA read.
	DUEngineStart = 1920 * time.Nanosecond

	// DUPerPacketRestart is the engine's cost to restart the source DMA
	// for each additional packet of a multi-packet transfer.
	DUPerPacketRestart = 300 * time.Nanosecond

	// --- Shared outgoing path ---

	// PacketizeCost covers the outgoing page-table lookup and header
	// formation in the packetizing logic, per packet.
	PacketizeCost = 250 * time.Nanosecond

	// NICInjectCost is the arbiter + network-interface-chip cost to move
	// one packet from the outgoing FIFO onto the backplane.
	NICInjectCost = 200 * time.Nanosecond

	// --- Backplane ---

	// MeshHopLatency is the per-iMRC routing decision latency; wormhole
	// routing pipelines the body behind the header.
	MeshHopLatency = 100 * time.Nanosecond

	// MeshCombineCost is the router combine ALU's fold time: merging a
	// waiting partial result with an arriving combine packet (barrier
	// count, fetch-add, float sum) before the merged packet moves on.
	// The Ultracomputer-style combining queue did this in a couple of
	// switch cycles; 50 ns keeps it subordinate to the hop latency.
	MeshCombineCost = 50 * time.Nanosecond

	// --- Incoming path ---

	// IPTCheckCost is the incoming page-table lookup that validates the
	// destination page before DMA begins, per packet.
	IPTCheckCost = 200 * time.Nanosecond

	// IncomingDMASetup is the incoming DMA engine's cost to win the EISA
	// bus and start writing a packet to main memory. EISA arbitration
	// dominates the small-message latency budget, as it did on the
	// hardware.
	IncomingDMASetup = 1520 * time.Nanosecond

	// InterruptCost is the cost to raise and dispatch an interrupt to the
	// node CPU (receive-path protection faults and notifications).
	InterruptCost = 20 * time.Microsecond

	// SignalDeliveryCost is the kernel cost to turn an interrupt into a
	// user-level notification handler invocation, on top of
	// InterruptCost. The paper implements notifications with signals and
	// calls them expensive; this is why the libraries poll.
	SignalDeliveryCost = 30 * time.Microsecond

	// FastNotifyPost is the network interface's cost to append a
	// notification record to a user-level queue instead of raising an
	// interrupt — the active-message-style reimplementation the paper
	// plans ("with performance much better than signals in the common
	// case", Section 2.3).
	FastNotifyPost = 500 * time.Nanosecond

	// FastNotifyDispatch is the user-level cost to pick a queued record
	// up and run its handler at the receiver's next poll or yield point.
	FastNotifyDispatch = 800 * time.Nanosecond

	// --- Virtual-memory protection (user-level page management) ---

	// MprotectCost is one mprotect-style protection-change system call:
	// trap into the kernel, page-table update, local TLB flush. Charged
	// per call, not per page — the kernel walks a contiguous PTE run under
	// a single trap.
	MprotectCost = 5 * time.Microsecond

	// PageFaultUpcall is the cost from a protection violation trapping in
	// the MMU to a user-level fault handler running: trap entry, fault
	// decoding, signal-frame setup, and the sigreturn-style resume that
	// retries the faulting access when the handler returns. It sits in the
	// same price class as the signal path the paper calls expensive, which
	// is why page-based shared memory amortizes each fault over a whole
	// page of subsequent accesses.
	PageFaultUpcall = 35 * time.Microsecond

	// --- CPU costs for library-level code ---

	// CallCost is a procedure call plus a handful of instructions at
	// 60 MHz — the unit cost the library models charge for bookkeeping.
	CallCost = 150 * time.Nanosecond

	// WordTouchCost is reading or writing a single flag/descriptor word
	// from library code, including the load/store and branch.
	WordTouchCost = 100 * time.Nanosecond

	// PollCheckCost is one iteration of a poll loop: load the flag,
	// compare, branch.
	PollCheckCost = 100 * time.Nanosecond
)

// Ethernet / kernel-stack costs, used by the control plane and by the
// conventional-network baselines.
const (
	// EtherFrameOverhead is preamble + header + CRC + interframe gap,
	// charged per frame on the shared medium.
	EtherFrameOverhead = 58

	// EtherMTU is the largest payload per frame.
	EtherMTU = 1500

	// EtherSyscallCost is one kernel protocol-stack traversal (syscall,
	// checksum, buffer management) on a 60 MHz Pentium.
	EtherSyscallCost = 120 * time.Microsecond

	// EtherInterruptCost is the receive-side interrupt + protocol
	// processing per packet.
	EtherInterruptCost = 100 * time.Microsecond
)
