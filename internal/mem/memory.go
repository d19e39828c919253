// Package mem models a node's physical main memory: a flat, byte-addressed
// array divided into pages, with two hooks the rest of the simulation needs:
//
//   - write watchers, per page, so simulated processes can "poll" a flag
//     word without time-quantized spinning — the memory wakes them exactly
//     when the watched page changes (the NIC's incoming DMA or a local
//     store); and
//   - a snoop hook, so the SHRIMP network interface can observe CPU stores
//     on the memory bus (the automatic-update mechanism); and
//   - write observers, per frame, so a library can note which words of a
//     page a write covered (NX marks the packet buffers whose size word
//     may have changed) at the moment the page's watchers are woken.
//
// Timing is charged by the callers (CPU model, DMA engines); this package
// only moves bytes and fires hooks.
//
// DRAM is demand-allocated page by page: a page that has never been written
// reads as zeros from a shared page and costs no memory. A simulated node
// with 40MB of DRAM therefore costs only what the workload actually touches.
// Release hands a finished memory's frames to a process-wide free list
// (capped at maxFreeFrames), and the next first write anywhere takes its
// frame from that list, cleared, before it allocates a fresh one. A figure
// sweep that builds hundreds of clusters thus reuses the host pages the
// last world faulted in instead of allocating and zeroing new ones. A
// released memory is unusable: any later read or write panics.
//
// The per-page tables are recycled the same way. Every one is a Sparse,
// whose 256-entry chunks go, cleared, to a process-wide free list per
// element type when the table is released (all lists share one byte cap,
// maxPooledChunkBytes), and a table's next chunk comes from that list
// before it is allocated. Memory releases its frame, hook and observer
// tables; the kernel's page tables and the NIC's incoming page table are
// released by their owners, all at cluster shutdown.
package mem

import (
	"fmt"

	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// PA is a physical byte address.
type PA uint64

// PFN is a physical page frame number.
type PFN uint32

// PageOf returns the frame containing pa.
func PageOf(pa PA) PFN { return PFN(pa / hw.Page) }

// Base returns the first address of frame f.
func (f PFN) Base() PA { return PA(f) * hw.Page }

// WriteObserver is told the page-relative offset and length of each
// fragment of a Write that lands in its frame (see Observe).
type WriteObserver func(off, n int)

// SnoopFunc observes a store of data at pa as it appears on the memory bus;
// tag is the frame's snoop tag (see SetSnooped).
type SnoopFunc func(pa PA, tag int32, data []byte)

// zeroPage backs every never-written frame. Read-only by contract: all
// accessors copy out of it and no writer ever targets it.
var zeroPage = make([]byte, hw.Page)

// maxFreeFrames caps the free list at 4MB of frames: far more than the few
// dozen a figure point's world writes, and half the live-heap slack the
// bench package's world-shutdown test allows, so frames kept for reuse
// never read as a leaked world.
const maxFreeFrames = 1024

// freeFrames holds frames released by finished memories, for pageW to reuse.
// One simulation thread per process, so a plain stack suffices.
var freeFrames [][]byte

// Memory is one node's DRAM.
type Memory struct {
	eng   *sim.Engine
	size  int
	npage int
	// frames holds each frame's backing slice, filled in on first write;
	// an absent or nil frame still reads as zeros, so constructing a 40MB
	// memory costs nearly nothing.
	frames Sparse[[]byte]

	// hooks holds each frame's write watcher (created by the first wait on
	// the page) and snoop tag. An absent entry means neither.
	hooks Sparse[pageHooks]

	// snoop, when set, is handed the store bursts PresentToSnoop presents
	// to snooped frames (OPT-bound pages). The real snoop logic sits on
	// the Xpress bus and watches processor writes; incoming EISA DMA does
	// not re-enter the outgoing path.
	snoop SnoopFunc

	// observers holds each frame's write observer, if any; nobs counts
	// them, so a memory with none never reads the table.
	observers Sparse[WriteObserver]
	nobs      int
}

// pageHooks is one frame's watcher and snoop tag. The tag is the only
// record of a frame's automatic-update binding: the snoop's owner (the NIC)
// picks tags that name where the frame's stores go.
type pageHooks struct {
	cond  *sim.Cond
	snoop int32 // 0: stores are not presented to the snoop
}

// New returns a memory of size bytes (rounded up to a whole page). No DRAM
// is allocated up front; frames materialize on first write.
func New(eng *sim.Engine, size int) *Memory {
	pages := (size + hw.Page - 1) / hw.Page
	return &Memory{eng: eng, size: pages * hw.Page, npage: pages}
}

// Pages returns the number of page frames.
func (m *Memory) Pages() int { return m.npage }

func (m *Memory) check(pa PA, n int) {
	// Overflow-safe: a huge pa must not wrap the sum past the size check.
	if n < 0 || uint64(pa) > uint64(m.size) || uint64(n) > uint64(m.size)-uint64(pa) {
		panic(fmt.Sprintf("mem: access out of range: pa=%#x n=%d size=%d", pa, n, m.size)) //lint:allow transitive-panic simulated bus error: physical addresses come from the kernel's own page tables
	}
}

// page returns the frame's backing bytes for reading (the shared zero page
// if it was never written).
func (m *Memory) page(f PFN) []byte {
	if p := m.frames.Get(int(f)); p != nil && *p != nil {
		return *p
	}
	return zeroPage
}

// pageW returns the frame's backing bytes for writing, materializing it.
// Every store comes here, so a written frame is found through Get, which
// inlines; W runs only for the frame's first write.
func (m *Memory) pageW(f PFN) []byte {
	if p := m.frames.Get(int(f)); p != nil && *p != nil {
		return *p
	}
	p := m.frames.W(int(f))
	if l := len(freeFrames); l > 0 {
		*p = freeFrames[l-1]
		freeFrames[l-1] = nil
		freeFrames = freeFrames[:l-1]
		clear(*p)
	} else {
		*p = make([]byte, hw.Page)
	}
	return *p
}

// Release returns m's materialized frames to the free list, up to its cap
// (the rest go to the garbage collector), releases its frame, hook and
// observer tables (Sparse.Release) and zeroes its size, so any later read
// or write of m panics. Call it once nothing can touch m again; a second
// call is a no-op. Frames are cleared when reused, not here.
func (m *Memory) Release() {
	m.frames.All(func(_ int, p *[]byte) bool {
		if *p != nil && len(freeFrames) < maxFreeFrames {
			freeFrames = append(freeFrames, *p)
		}
		return true
	})
	m.frames.Release()
	m.hooks.Release()
	m.observers.Release()
	m.nobs, m.size = 0, 0
}

// ReadInto copies len(b) bytes at pa into b. b never aliases simulated RAM.
func (m *Memory) ReadInto(pa PA, b []byte) {
	m.check(pa, len(b))
	off := 0
	for off < len(b) {
		a := pa + PA(off)
		po := int(a % hw.Page)
		frag := len(b) - off
		if frag > hw.Page-po {
			frag = hw.Page - po
		}
		copy(b[off:off+frag], m.page(PageOf(a))[po:])
		off += frag
	}
}

// Write stores b at pa, for a DMA master and the processor alike, and
// wakes the watchers of every page it touches, each just after telling the
// page's observer, if any, which of its bytes the write covered. A store
// never reaches the snoop by itself: the kernel presents each store burst
// to an AU-bound page with PresentToSnoop one cache-to-bus delay after it
// lands, and DMA writes are never snooped. Frames materialize on their
// first write.
func (m *Memory) Write(pa PA, b []byte) {
	m.check(pa, len(b))
	off := 0
	for off < len(b) {
		a := pa + PA(off)
		po := int(a % hw.Page)
		frag := len(b) - off
		if frag > hw.Page-po {
			frag = hw.Page - po
		}
		copy(m.pageW(PageOf(a))[po:], b[off:off+frag])
		off += frag
	}
	m.wake(pa, len(b))
}

// PresentToSnoop offers previously-captured store values to the snoop hook
// without touching memory contents (they were already written). Fragments
// are presented page-locally, as the bus would.
func (m *Memory) PresentToSnoop(pa PA, b []byte) {
	if m.snoop == nil {
		return
	}
	off := 0
	for off < len(b) {
		a := pa + PA(off)
		room := hw.Page - int(a%hw.Page)
		frag := len(b) - off
		if frag > room {
			frag = room
		}
		if tag := m.Snooped(PageOf(a)); tag != 0 {
			m.snoop(a, tag, b[off:off+frag])
		}
		off += frag
	}
}

// wake tells each page the write [pa, pa+n) touched: its observer, if
// any, with the page-relative part of the write, then its watchers. A
// memory with no observers never reads the observer table.
func (m *Memory) wake(pa PA, n int) {
	first, last := PageOf(pa), PageOf(pa+PA(n-1))
	for f := first; f <= last; f++ {
		if m.nobs > 0 {
			if o := m.observers.Get(int(f)); o != nil && *o != nil {
				lo, hi := max(pa, f.Base()), min(pa+PA(n), f.Base()+hw.Page)
				(*o)(int(lo-f.Base()), int(hi-lo))
			}
		}
		if h := m.hooks.Get(int(f)); h != nil && h.cond != nil {
			h.cond.Broadcast()
		}
	}
}

// Observe installs fn (non-nil) as frame f's write observer, replacing any
// earlier one. The frame need not have been written yet. fn runs in the
// writer's context once the write's bytes are in place, before the frame's
// watchers are woken, so it must not wait; it may signal. Release drops
// every observer.
func (m *Memory) Observe(f PFN, fn WriteObserver) {
	o := m.observers.W(int(f))
	if *o == nil {
		m.nobs++
	}
	*o = fn
}

// Unobserve drops frame f's write observer, if any: a frame handed back to
// its allocator must not report a later owner's writes to the old one.
func (m *Memory) Unobserve(f PFN) {
	if o := m.observers.Get(int(f)); o != nil && *o != nil {
		*o, m.nobs = nil, m.nobs-1
	}
}

// SetSnoop installs the bus snoop hook (the SHRIMP NIC's snoop logic).
func (m *Memory) SetSnoop(fn SnoopFunc) { m.snoop = fn }

// SetSnooped sets frame f's snoop tag: a nonzero tag presents the frame's
// CPU stores to the snoop hook with the tag, 0 stops presenting them.
func (m *Memory) SetSnooped(f PFN, tag int32) {
	if h := m.hooks.Get(int(f)); h != nil {
		h.snoop = tag
	} else if tag != 0 {
		m.hooks.W(int(f)).snoop = tag
	}
}

// Snooped returns frame f's snoop tag, 0 if its stores are not snooped.
func (m *Memory) Snooped(f PFN) int32 {
	if h := m.hooks.Get(int(f)); h != nil {
		return h.snoop
	}
	return 0
}

// PageCond returns the watcher condition variable for frame f: it is
// broadcast whenever a write lands in the frame. Waiters re-check their
// predicate after waking, as with any condition variable.
func (m *Memory) PageCond(f PFN) *sim.Cond {
	if h := m.hooks.Get(int(f)); h != nil && h.cond != nil {
		return h.cond
	}
	h := m.hooks.W(int(f))
	h.cond = sim.NewCond(m.eng)
	return h.cond
}

// U32 reads a little-endian 32-bit word at pa.
func (m *Memory) U32(pa PA) uint32 {
	m.check(pa, 4)
	if po := int(pa % hw.Page); po <= hw.Page-4 {
		b := m.page(PageOf(pa))[po:]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	var b [4]byte
	m.ReadInto(pa, b[:])
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
