// Package kernel models the per-node operating system of the SHRIMP
// prototype: a Linux-like kernel on each Pentium node providing processes,
// virtual address spaces with per-page attributes (the paper relies on
// per-virtual-page write-through/uncached control and on page pinning for
// receive buffers) and interrupt dispatch. VMMC notifications, which the
// prototype carried on UNIX signals, are queued by the VMMC library itself
// and reach a process through its proc's interrupts.
//
// The kernel is deliberately thin: SHRIMP's whole point is that the OS is
// *not* on the communication fast path. It appears here for process setup,
// import/export mapping management (via the daemon), and the interrupt path.
package kernel

import (
	"fmt"
	"slices"
	"time"

	"shrimp/internal/hw"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// VA is a virtual byte address in some process's address space.
type VA uint64

// VPN is a virtual page number.
type VPN uint32

// PageOf returns the virtual page containing va.
func PageOf(va VA) VPN { return VPN(va / hw.Page) }

// PTE flags.
type PTEFlags uint8

const (
	// FlagWriteThrough marks the page cached write-through — required for
	// automatic-update bound pages so stores appear on the bus.
	FlagWriteThrough PTEFlags = 1 << iota
	// FlagUncached disables caching entirely (paper Section 3.4 measures
	// AU latency both ways).
	FlagUncached
	// FlagPinned prevents the frame from being reclaimed; set on exported
	// receive buffers by the SHRIMP daemon.
	FlagPinned
)

// PTE maps a virtual page to a physical frame.
type PTE struct {
	Frame mem.PFN
	Flags PTEFlags
}

// Prot is a page's access-protection level. The zero value is full access,
// so pages are read-write unless a user-level memory manager (the SVM layer)
// explicitly restricts them and ordinary code never pays for protection.
type Prot uint8

const (
	// ProtRW allows loads and stores (the default for mapped pages).
	ProtRW Prot = iota
	// ProtRead allows loads; stores fault.
	ProtRead
	// ProtNone faults on any access.
	ProtNone
)

func (pr Prot) String() string {
	switch pr {
	case ProtRW:
		return "rw"
	case ProtRead:
		return "r"
	case ProtNone:
		return "none"
	}
	return "?"
}

// PageFault describes one protection violation being upcalled to the
// process's fault handler.
type PageFault struct {
	VA    VA   // faulting address
	Write bool // store (true) or load (false)
	Prot  Prot // protection in force when the access faulted
	Depth int  // 1 for a top-level fault, >1 when nested inside a handler
}

// Machine is one node's kernel state: CPU, memory, interrupt vectors.
type Machine struct {
	ID  int
	Eng *sim.Engine
	Mem *mem.Memory

	// CPU serializes compute between processes on the node (one Pentium
	// per node). Blocking waits do not hold the CPU.
	CPU sim.Server

	// MemBus models the Xpress memory bus: bulk CPU copies and the NIC's
	// DMA engines all reserve it, so they serialize — the behaviour that
	// caps the 2-copy protocols in the paper's Figure 3.
	MemBus sim.Server

	// Frame allocator: fresh frames come from the ascending nextFrame
	// cursor (frame 0 stays reserved); freed frames are reused LIFO from
	// freedFrames first. Equivalent to popping a prebuilt [max..1] stack,
	// without materializing ten thousand entries per node up front.
	freedFrames []mem.PFN
	nextFrame   mem.PFN
	nextPID     int

	// segPool recycles the AU store-capture segments (writeAUFragment):
	// each segment lives only until its delayed PresentToSnoop runs, so a
	// small free list absorbs the entire per-store allocation churn.
	segPool []*auSegment
	irq     map[int]func(data any)
	// irqQ holds raised interrupts until their handlers run, from
	// irqHead on; runIRQ, built at the first interrupt, runs the head one.
	// Every interrupt posts runIRQ InterruptCost after it is raised, so
	// they fire in the order they were raised.
	irqQ    []irqRec
	irqHead int
	runIRQ  func()
	procs   []*Process // every process spawned, for Crash
	dead    bool       // node crashed: interrupts are dropped

	// IRQRaised counts interrupts delivered to this node's CPU — the
	// libraries' interrupt-avoidance claims are tested against it.
	IRQRaised int64

	// Trace, when non-nil, collects observability data for this node's
	// whole stack; set by cluster.New, reached by the NIC and libraries
	// through their Machine/Process references, each of which takes its
	// track name from Track once, so no instrumentation site formats one.
	Trace *trace.Collector

	// names is the node ID's entry in nodeNames.
	names *nodeNames
}

// nodeNames caches the names built on one node ID: tracks maps a layer
// to its trace track ("nic" to "node3/nic"), procs a process name to the
// proc's ("shrimpd" to "n3/shrimpd"). A name depends only on the node ID
// and the string, so each is formatted once per process and shared by
// every world that numbers its nodes the same. One simulation thread per
// process, so plain maps suffice.
type nodeNames struct {
	tracks, procs map[string]string
}

// namesByID holds each node ID's nodeNames, grown on demand.
var namesByID []*nodeNames

// namesOf returns node id's nodeNames.
func namesOf(id int) *nodeNames {
	for len(namesByID) <= id {
		namesByID = append(namesByID, &nodeNames{map[string]string{}, map[string]string{}})
	}
	return namesByID[id]
}

// Track returns the node's trace track for a layer: "node3/nic" for
// "nic".
func (m *Machine) Track(layer string) string {
	t, ok := m.names.tracks[layer]
	if !ok {
		t = fmt.Sprintf("node%d/%s", m.ID, layer)
		m.names.tracks[layer] = t
	}
	return t
}

// NewMachine creates a node kernel over memBytes of DRAM. The first few
// frames are reserved (frame 0 stays unmapped to catch null transfers).
func NewMachine(id int, eng *sim.Engine, memBytes int) *Machine {
	m := &Machine{
		ID:        id,
		Eng:       eng,
		Mem:       mem.New(eng, memBytes),
		CPU:       sim.MakeServer(eng),
		MemBus:    sim.MakeServer(eng),
		irq:       make(map[int]func(any)),
		nextFrame: 1,
		names:     namesOf(id),
	}
	return m
}

// irqRec is one raised interrupt waiting for its handler.
type irqRec struct {
	fn   func(any)
	data any
}

// AllocFrame takes a free physical frame: the most recently freed one if
// any, else the next never-used frame.
func (m *Machine) AllocFrame() mem.PFN {
	if n := len(m.freedFrames); n > 0 {
		f := m.freedFrames[n-1]
		m.freedFrames = m.freedFrames[:n-1]
		return f
	}
	if int(m.nextFrame) >= m.Mem.Pages() {
		panic(fmt.Sprintf("kernel: node %d out of physical memory", m.ID)) //lint:allow transitive-panic simulated machine out of RAM: a configuration error, halting beats silently wrong figures
	}
	f := m.nextFrame
	m.nextFrame++
	return f
}

// FreeFrame returns a frame to the allocator, dropping its write observer
// (ObserveWrites) so the frame's next owner is not watched by the last.
func (m *Machine) FreeFrame(f mem.PFN) {
	m.Mem.Unobserve(f)
	m.freedFrames = append(m.freedFrames, f)
}

// RegisterIRQ installs a handler for an interrupt vector (the NIC raises
// these). The handler runs in event context after InterruptCost.
func (m *Machine) RegisterIRQ(vector int, fn func(data any)) { m.irq[vector] = fn }

// RaiseIRQ dispatches an interrupt to the node CPU. A crashed machine
// drops interrupts on the floor.
func (m *Machine) RaiseIRQ(vector int, data any) {
	if m.dead {
		return
	}
	fn, ok := m.irq[vector]
	if !ok {
		// A wiring bug: every vector is registered at machine construction.
		panic(fmt.Sprintf("kernel: node %d spurious interrupt %d", m.ID, vector))
	}
	m.IRQRaised++
	if m.Trace != nil {
		m.Trace.Count(m.Track("kernel"), "irq", 1)
	}
	if m.runIRQ == nil {
		m.runIRQ = func() {
			r := m.irqQ[m.irqHead]
			m.irqQ[m.irqHead] = irqRec{}
			m.irqHead++
			if m.irqHead == len(m.irqQ) {
				m.irqQ = m.irqQ[:0]
				m.irqHead = 0
			}
			r.fn(r.data)
		}
	}
	m.irqQ = append(m.irqQ, irqRec{fn, data})
	m.Eng.Post(hw.InterruptCost, m.runIRQ)
}

// Process is a user process on a node.
type Process struct {
	PID  int
	Name string
	M    *Machine
	P    *sim.Proc

	// pages is the page table, indexed by VPN and filled in on first
	// touch. An absent entry reads as an unmapped page with no attributes.
	pages  mem.Sparse[pageEntry]
	nextVA VA // bump allocator for mappings

	heapVA  VA // current heap fill pointer
	heapEnd VA
	heapWT  bool // heap pages write-through?

	faultFn    func(*Process, PageFault)
	faultDepth int

	// waitSets pools the cond lists of the multi-source waits, one per
	// nesting level in use (waitDepth); see waitSet.
	waitSets  [][]*sim.Cond
	waitDepth int

	// copyBufs pools CopyVA's staging buffers the same way, one per
	// nesting level in use (copyDepth): an interrupt handler may run CopyVA
	// while an outer copy's WriteBytes sleeps.
	copyBufs  [][]byte
	copyDepth int

	// PageFaults counts protection-violation upcalls delivered to this
	// process; the SVM coherence accounting reads it.
	PageFaults int64

	exited bool
}

// Spawn starts a process on the machine. body runs in a fresh proc context.
func (m *Machine) Spawn(name string, body func(p *Process)) *Process {
	m.nextPID++
	pr := &Process{
		PID:    m.nextPID,
		Name:   name,
		M:      m,
		nextVA: 0x10000,
	}
	pname, ok := m.names.procs[name]
	if !ok {
		pname = fmt.Sprintf("n%d/%s", m.ID, name)
		m.names.procs[name] = pname
	}
	pr.P = m.Eng.Spawn(pname, func(sp *sim.Proc) {
		body(pr)
		pr.exited = true
	})
	m.procs = append(m.procs, pr)
	return pr
}

// Exited reports whether the process's body has returned or its node has
// crashed.
func (p *Process) Exited() bool { return p.exited }

// Crash kills the node: every process is unwound at its next scheduling
// point and interrupts are dropped from now on. Must be called from event
// context or from a proc on a different node. The machine's memory and
// device state remain readable (for post-mortem inspection) but nothing
// on the node will ever run again; restarting a node means building a
// fresh Machine.
func (m *Machine) Crash() {
	if m.dead {
		return
	}
	m.dead = true
	for _, pr := range m.procs {
		pr.P.Kill()
		pr.exited = true
	}
}

// Release hands every process's page table and the node's memory back to
// mem's free lists for the next world (mem.Sparse.Release,
// mem.Memory.Release). Call it once nothing on the node runs again
// (cluster.Cluster.Shutdown): afterwards any access through an address
// space panics. A second call is a no-op.
func (m *Machine) Release() {
	for _, pr := range m.procs {
		pr.pages.Release()
	}
	m.Mem.Release()
}

// --- Address space management ---

// pageEntry is everything the kernel tracks for one virtual page. The AU
// mark and the protection are independent of the mapping: UnmapPages
// leaves them in place.
type pageEntry struct {
	pte    PTE
	mapped bool
	au     bool // stores stream at the snooped AU rate (SetAUPage)
	prot   Prot // ProtRW unless a user-level memory manager restricted it
}

// mapped returns vpn's entry if the page is mapped, else nil.
func (p *Process) mapped(vpn VPN) *pageEntry {
	if e := p.pages.Get(int(vpn)); e != nil && e.mapped {
		return e
	}
	return nil
}

// MapPages allocates n fresh frames and maps them contiguously, returning
// the base VA (page-aligned).
func (p *Process) MapPages(n int, flags PTEFlags) VA {
	base := p.nextVA
	if off := base % hw.Page; off != 0 {
		base += VA(hw.Page - off)
	}
	for i := 0; i < n; i++ {
		f := p.M.AllocFrame()
		e := p.pages.W(int(PageOf(base) + VPN(i)))
		e.pte, e.mapped = PTE{Frame: f, Flags: flags}, true
	}
	p.nextVA = base + VA(n*hw.Page)
	return base
}

// UnmapPages removes n pages at base and frees their frames.
func (p *Process) UnmapPages(base VA, n int) {
	if base%hw.Page != 0 {
		panic("kernel: unmap of unaligned base")
	}
	for i := 0; i < n; i++ {
		e := p.mapped(PageOf(base) + VPN(i))
		if e == nil {
			panic(fmt.Sprintf("kernel: unmap of unmapped page %#x", base))
		}
		p.M.FreeFrame(e.pte.Frame)
		e.pte, e.mapped = PTE{}, false
	}
}

// Alloc returns a VA for n bytes with the given alignment (1 = byte).
// Backing pages are ordinary cached pages, mapped on demand. This is the
// process "heap" used for user buffers.
func (p *Process) Alloc(n, align int) VA {
	if align <= 0 {
		align = 1
	}
	if p.heapVA == 0 {
		p.heapVA = p.MapPages(1, 0)
		p.heapEnd = p.heapVA + hw.Page
	}
	va := p.heapVA
	if off := int(va) % align; off != 0 {
		va += VA(align - off)
	}
	for va+VA(n) > p.heapEnd {
		// Extend the heap; MapPages is contiguous because nextVA only
		// moves here during heap growth... unless another mapping
		// intervened, in which case start a fresh run.
		next := p.MapPages(1, 0)
		if next != p.heapEnd {
			va = next
			if off := int(va) % align; off != 0 {
				va += VA(align - off)
			}
			p.heapEnd = next + hw.Page
			for va+VA(n) > p.heapEnd {
				ext := p.MapPages(1, 0)
				if ext != p.heapEnd {
					panic("kernel: heap extension not contiguous") //lint:allow transitive-panic allocator invariant; MapPages grows the heap monotonically
				}
				p.heapEnd += hw.Page
			}
			break
		}
		p.heapEnd += hw.Page
	}
	p.heapVA = va + VA(n)
	return va
}

// Translate resolves a VA to a physical address.
func (p *Process) Translate(va VA) (mem.PA, error) {
	e := p.mapped(PageOf(va))
	if e == nil {
		return 0, fmt.Errorf("page fault: %s va %#x unmapped", p.Name, va)
	}
	return e.pte.Frame.Base() + mem.PA(va%hw.Page), nil
}

// PTEOf returns the page-table entry for va's page.
func (p *Process) PTEOf(va VA) (PTE, bool) {
	if e := p.mapped(PageOf(va)); e != nil {
		return e.pte, true
	}
	return PTE{}, false
}

// SetFlags updates the flags on a mapped page (e.g. the daemon marking a
// page write-through before creating an AU binding).
func (p *Process) SetFlags(vpn VPN, flags PTEFlags) {
	e := p.mapped(vpn)
	if e == nil {
		panic("kernel: SetFlags on unmapped page") //lint:allow transitive-panic kernel invariant: callers validate the mapping first (daemon BindAU checks PTEOf)
	}
	e.pte.Flags = flags
}

// --- Per-page protection and the user-level fault upcall ---
//
// The paper's follow-on SVM work depends on user-level page management:
// a protocol library restricts pages with Mprotect, and the kernel upcalls
// protection violations into a user handler, then retries the faulting
// access — the software analogue of the NIC's freeze-with-retry receive
// path (hold the offending operation, let software fix the mapping, retry).
// Only the costed access paths (ReadBytes/WriteBytes/ReadWord/WriteWord/
// CopyVA sources) check protection; Peek/Poke/WaitWord are simulation
// bookkeeping and bypass it, like a debugger reading through /proc.

// maxFaultRetries bounds how often one access may fault without the
// handler changing the outcome before the kernel declares the process
// wedged — a real kernel would kill it with SIGSEGV storming.
const maxFaultRetries = 100

// Mprotect sets the protection of n pages starting at the page containing
// base. Pages must be mapped. Charged as one protection-change syscall.
func (p *Process) Mprotect(base VA, n int, pr Prot) {
	for i := 0; i < n; i++ {
		e := p.mapped(PageOf(base) + VPN(i))
		if e == nil {
			panic(fmt.Sprintf("kernel: %s mprotect of unmapped page va %#x", p.Name, base)) //lint:allow transitive-panic mprotect of an unmapped page is a simulated segfault: a program bug, not a runtime condition
		}
		e.prot = pr
	}
	p.Compute(hw.MprotectCost)
}

// OnPageFault installs the process's protection-fault handler. The handler
// runs in process context (it may sleep, send messages, and call Mprotect);
// when it returns, the faulting access retries. There is one handler per
// process — a library layering over another should save and chain the
// previous handler (see PageFaultHandler).
func (p *Process) OnPageFault(fn func(*Process, PageFault)) { p.faultFn = fn }

// PageFaultHandler returns the currently installed fault handler (nil if
// none), so stacked memory managers can chain.
func (p *Process) PageFaultHandler() func(*Process, PageFault) { return p.faultFn }

// checkAccess enforces page protection for one access, upcalling the fault
// handler and retrying until the access is permitted.
func (p *Process) checkAccess(va VA, write bool) {
	vpn := PageOf(va)
	for tries := 0; ; tries++ {
		pr := ProtRW
		if e := p.pages.Get(int(vpn)); e != nil {
			pr = e.prot
		}
		if pr == ProtRW || (pr == ProtRead && !write) {
			return
		}
		if p.faultFn == nil {
			panic(fmt.Sprintf("kernel: %s protection fault va %#x (write=%v prot=%v), no fault handler", p.Name, va, write, pr)) //lint:allow transitive-panic unhandled protection fault is a simulated segfault; SVM installs the handler
		}
		if tries == maxFaultRetries {
			panic(fmt.Sprintf("kernel: %s fault handler made no progress on va %#x after %d retries", p.Name, va, tries)) //lint:allow transitive-panic livelocked fault handler is a coherence-protocol bug; halting beats spinning forever
		}
		p.PageFaults++
		if p.M.Trace != nil {
			p.M.Trace.Count(p.M.Track("kernel"), "pagefault", 1)
		}
		p.faultDepth++
		p.Compute(hw.PageFaultUpcall)
		p.faultFn(p, PageFault{VA: va, Write: write, Prot: pr, Depth: p.faultDepth})
		p.faultDepth--
	}
}

// checkRange runs the access check across every page the range touches.
func (p *Process) checkRange(va VA, n int, write bool) {
	for off := 0; off < n; {
		p.checkAccess(va+VA(off), write)
		off += hw.Page - int((va+VA(off))%hw.Page)
	}
}

func (p *Process) mustPA(va VA) mem.PA {
	pa, err := p.Translate(va)
	if err != nil {
		panic(err) //lint:allow transitive-panic translation of an unmapped va is a simulated segfault: a program bug, not a runtime condition
	}
	return pa
}

// --- Data access with cost accounting ---
//
// Bulk operations reserve the node memory bus so CPU copies and NIC DMA
// serialize against each other; small word touches are treated as cache
// traffic and charged flat CPU costs.

// Compute charges d of pure CPU time (no bus traffic).
func (p *Process) Compute(d time.Duration) {
	_, end := p.M.CPU.Reserve(d)
	p.P.Sleep(end.Sub(p.P.Now()))
}

// busyUntil reserves the memory bus for dur and sleeps the proc to the end
// of the reservation.
func (p *Process) busyUntil(dur time.Duration) {
	_, end := p.M.MemBus.Reserve(dur)
	p.P.Sleep(end.Sub(p.P.Now()))
}

// SetAUPage is used by the VMMC layer to tell the kernel cost model that
// stores to this page stream to the bus at the (slower) snooped rate.
func (p *Process) SetAUPage(vpn VPN, on bool) {
	if e := p.pages.Get(int(vpn)); e != nil {
		e.au = on
	} else if on {
		p.pages.W(int(vpn)).au = true
	}
}

// IsAUPage reports whether the page has an automatic-update binding.
func (p *Process) IsAUPage(vpn VPN) bool {
	e := p.pages.Get(int(vpn))
	return e != nil && e.au
}

// WriteBytes stores b at va through the CPU path, charging store costs
// page-fragment by page-fragment.
//
// Stores to AU-bound pages stream at the (slower, snooped) write-through
// rate in packet-sized segments; the written values become visible to the
// snoop logic one AUSnoopDelay later (the store traverses the cache
// hierarchy before appearing on the bus — a pipeline latency, not
// occupancy), so the NIC's outgoing path overlaps a long copy. Other stores
// pay the plain copy rate, or a flat cost for word-sized touches.
func (p *Process) WriteBytes(va VA, b []byte) {
	off := 0
	for off < len(b) {
		frag := len(b) - off
		room := hw.Page - int((va+VA(off))%hw.Page)
		if frag > room {
			frag = room
		}
		p.checkAccess(va+VA(off), true)
		e := p.mapped(PageOf(va + VA(off)))
		if e == nil {
			panic(fmt.Errorf("page fault: %s store va %#x", p.Name, va+VA(off))) //lint:allow transitive-panic store to an unmapped page is a simulated segfault: a program bug, not a runtime condition
		}
		pa := e.pte.Frame.Base() + mem.PA(int(va+VA(off))%hw.Page)
		if e.au {
			delay := hw.AUSnoopDelay
			if e.pte.Flags&FlagUncached != 0 {
				delay = hw.AUUncachedSnoopDelay
			}
			p.writeAUFragment(pa, b[off:off+frag], delay)
		} else {
			var cost time.Duration
			if frag <= 2*hw.WordSize {
				cost = hw.WordTouchCost
			} else {
				cost = time.Duration(frag) * hw.MemCopyPerByte
			}
			p.busyUntil(cost)
			p.M.Mem.Write(pa, b[off:off+frag])
		}
		off += frag
	}
}

// writeAUFragment streams one page-local store burst to an AU-bound page in
// AUSegment pieces: content lands (and watchers fire) when the CPU retires
// each segment; the snoop logic sees a captured copy of the values one delay
// later.
func (p *Process) writeAUFragment(pa mem.PA, b []byte, delay time.Duration) {
	for len(b) > 0 {
		seg := len(b)
		if seg > hw.AUSegment {
			seg = hw.AUSegment
		}
		p.busyUntil(time.Duration(seg) * hw.AUStorePerByte)
		s := p.M.getSeg()
		s.pa = pa
		s.data = append(s.data, b[:seg]...)
		p.M.Mem.Write(pa, s.data)
		p.M.Eng.Post(delay, s.present)
		pa += mem.PA(seg)
		b = b[seg:]
	}
}

// auSegment is one captured AU store segment on its way to the snoop
// logic: the store values and where they landed. present is built once
// with the segment, so posting it allocates nothing.
type auSegment struct {
	m       *Machine
	pa      mem.PA
	data    []byte
	present func()
}

// getSeg takes an empty AU capture segment from the pool.
func (m *Machine) getSeg() *auSegment {
	if l := len(m.segPool); l > 0 {
		s := m.segPool[l-1]
		m.segPool[l-1] = nil
		m.segPool = m.segPool[:l-1]
		return s
	}
	s := &auSegment{m: m, data: make([]byte, 0, hw.AUSegment)}
	s.present = s.toSnoop
	return s
}

// toSnoop presents the captured values to the snoop logic. The snoop copies
// what it keeps, so the segment is free again once presented.
func (s *auSegment) toSnoop() {
	s.m.Mem.PresentToSnoop(s.pa, s.data)
	s.data = s.data[:0]
	s.m.segPool = append(s.m.segPool, s)
}

// ReadBytes loads n bytes at va into a fresh slice, charged as ReadInto.
func (p *Process) ReadBytes(va VA, n int) []byte {
	out := make([]byte, n)
	p.ReadInto(va, out)
	return out
}

// ReadInto loads len(out) bytes at va into out, charging the copy rate for
// bulk reads and a flat cost for word-sized touches.
func (p *Process) ReadInto(va VA, out []byte) {
	n := len(out)
	off := 0
	for off < n {
		frag := n - off
		room := hw.Page - int((va+VA(off))%hw.Page)
		if frag > room {
			frag = room
		}
		p.checkAccess(va+VA(off), false)
		pa := p.mustPA(va + VA(off))
		var cost time.Duration
		if frag <= 2*hw.WordSize {
			cost = hw.WordTouchCost
		} else {
			cost = time.Duration(frag) * hw.MemCopyPerByte
		}
		p.busyUntil(cost)
		p.M.Mem.ReadInto(pa, out[off:off+frag])
		off += frag
	}
}

// CopyVA copies n bytes from srcVA to dstVA within the process, as a user
// memcpy: one pass charged at the copy rate (AU destinations at the AU
// store rate), moving real bytes.
//
// The copy is staged through a per-process buffer in chunks of at most
// 8KB, so a steady-state copy allocates nothing.
func (p *Process) CopyVA(dstVA, srcVA VA, n int) {
	const chunk = 8 * 1024
	if p.copyDepth == len(p.copyBufs) {
		p.copyBufs = append(p.copyBufs, nil)
	}
	buf := p.copyBufs[p.copyDepth]
	if need := min(n, chunk); len(buf) < need {
		buf = make([]byte, need)
		p.copyBufs[p.copyDepth] = buf
	}
	p.copyDepth++
	defer p.endCopy()
	for n > 0 {
		c := n
		if c > chunk {
			c = chunk
		}
		p.checkRange(srcVA, c, false)
		b := buf[:c]
		p.PeekInto(srcVA, b)
		p.WriteBytes(dstVA, b)
		srcVA += VA(c)
		dstVA += VA(c)
		n -= c
	}
}

// endCopy releases the innermost CopyVA staging buffer.
func (p *Process) endCopy() { p.copyDepth-- }

// PeekInto reads len(b) bytes at va into b with no time charge: the copy
// side of CopyVA (whose cost is charged on the write side, so the pass is
// costed once, like a real memcpy), and the zero-cost read of Peek.
func (p *Process) PeekInto(va VA, b []byte) {
	off := 0
	for off < len(b) {
		frag := len(b) - off
		room := hw.Page - int((va+VA(off))%hw.Page)
		if frag > room {
			frag = room
		}
		pa := p.mustPA(va + VA(off))
		p.M.Mem.ReadInto(pa, b[off:off+frag])
		off += frag
	}
}

// Peek exposes zero-cost reads for assertions in tests and for the
// simulation's own bookkeeping. Library protocol code must use ReadBytes.
func (p *Process) Peek(va VA, n int) []byte {
	out := make([]byte, n)
	p.PeekInto(va, out)
	return out
}

// Poke writes bytes with no time charge, for test setup only.
func (p *Process) Poke(va VA, b []byte) {
	off := 0
	for off < len(b) {
		frag := len(b) - off
		room := hw.Page - int((va+VA(off))%hw.Page)
		if frag > room {
			frag = room
		}
		pa := p.mustPA(va + VA(off))
		p.M.Mem.Write(pa, b[off:off+frag])
		off += frag
	}
}

// WriteWord stores a 32-bit word (flag/descriptor update) with CPU-path
// semantics: snooped if the page is AU-bound.
func (p *Process) WriteWord(va VA, v uint32) {
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	p.WriteBytes(va, b[:])
}

// ReadWord loads a 32-bit word, charging one poll-check cost.
func (p *Process) ReadWord(va VA) uint32 {
	p.checkAccess(va, false)
	p.P.Sleep(hw.PollCheckCost)
	return p.M.Mem.U32(p.mustPA(va))
}

// PeekWord loads a 32-bit word with no time charge.
func (p *Process) PeekWord(va VA) uint32 { return p.M.Mem.U32(p.mustPA(va)) }

// ObserveWrites installs fn as the write observer of the frame behind the
// mapped page holding va (see mem.Memory.Observe). The observer stays with
// the frame until the page is unmapped (FreeFrame drops it), so it is for
// pinned pages, which never move.
func (p *Process) ObserveWrites(va VA, fn mem.WriteObserver) {
	p.M.Mem.Observe(mem.PageOf(p.mustPA(va)), fn)
}

// WaitWord blocks until pred holds on the word at va and returns the word:
// WaitPred on the page holding va, with no deadline.
func (p *Process) WaitWord(va VA, pred func(uint32) bool) uint32 {
	pa := p.mustPA(va)
	var v uint32
	p.WaitPred([]VA{va}, nil, 0, func() bool {
		v = p.M.Mem.U32(pa)
		return pred(v)
	})
	return v
}

// waitSet returns the conds a multi-source wait blocks on: the watcher of
// each distinct page holding one of vas, in first-appearance order, then
// extra. The list lives in the pooled slot for the next nesting level (a
// interrupt handler may wait while an outer wait is parked); the caller
// releases it with endWait when its wait returns. Duplicates are found by
// a linear scan — a wait covers a handful of pages.
func (p *Process) waitSet(vas []VA, extra []*sim.Cond) []*sim.Cond {
	if p.waitDepth == len(p.waitSets) {
		p.waitSets = append(p.waitSets, nil)
	}
	conds := p.waitSets[p.waitDepth][:0]
	for _, va := range vas {
		if c := p.M.Mem.PageCond(mem.PageOf(p.mustPA(va))); !slices.Contains(conds, c) {
			conds = append(conds, c)
		}
	}
	conds = append(conds, extra...)
	p.waitSets[p.waitDepth] = conds
	p.waitDepth++
	return conds
}

// endWait releases the innermost waitSet slot.
func (p *Process) endWait() { p.waitDepth-- }

// WaitPred blocks until pred holds, re-checking when a write lands in a
// page containing one of vas or when any of the extra conds is signaled,
// or until d elapses (d == 0: no deadline). It reports whether pred held;
// a wait that times out while parked returns false without a final poll.
// pred is charged one poll-check per evaluation. This is the kernel's one
// poll loop. A wait on a few flag words passes their pages; servers
// multiplexing memory-mapped streams with control-network ports add their
// ports' conds as extra; and NX passes no pages at all, only the readiness
// cond its write observers (ObserveWrites) broadcast when anything lands
// in its connections' regions, so a receive joins one cond however many
// connections it has. pred must
// test what the caller is waiting for: WaitPred parks only while pred is
// false, so an always-true pred returns after one PollCheckCost and a loop
// around it spins instead of waiting (shrimplint's no-spin-wait rule flags
// one).
func (p *Process) WaitPred(vas []VA, extra []*sim.Cond, d time.Duration, pred func() bool) bool {
	conds := p.waitSet(vas, extra)
	defer p.endWait()
	deadline := p.P.Now().Add(d)
	for {
		p.P.Sleep(hw.PollCheckCost)
		if pred() {
			return true
		}
		remain := time.Duration(0)
		if d != 0 {
			if remain = deadline.Sub(p.P.Now()); remain <= 0 {
				return false
			}
		}
		if sim.WaitAny(p.P, remain, conds...) {
			return false
		}
	}
}
