// Package svm implements page-based shared virtual memory on top of VMMC —
// the shared-memory usage model the paper names in Section 2 and the SHRIMP
// group's signature follow-on work (home-based automatic-update release
// consistency, AURC).
//
// Each shared region has one home node per page. A writer takes a
// write-protection fault, binds its local copy of the page to the home copy
// with automatic update, and from then on every store is snooped off the
// memory bus and propagated to the home by hardware — the protocol never
// computes diffs and never ships whole pages on the store path. A reader
// takes a read fault and pulls the current page from its home with one
// deliberate-update transfer, requested via a SendNotify-signalled control
// message. Consistency is release consistency: a node's writes are
// guaranteed visible at the home once the node releases (an AU flush fence
// plus per-home flush markers, acknowledged), and other nodes observe them
// at their next acquire, when write notices carried on the lock grant or
// barrier release invalidate their stale copies.
//
// Synchronization (svm.Lock, Region.Barrier) runs through a manager node:
// each operation is a synchronous request/reply over dedicated per-peer
// slots in a service region, so at most one control message is ever in
// flight per (requester, server) pair and slot reuse needs no further
// protocol. Service requests are delivered on the fast-notification path
// and handled in the server process's context, so a node parked in its own
// wait still serves fetches, flush markers, and lock traffic.
//
// Lifetime rule: a node must not exit while peers may still fault on pages
// it homes. End every SVM phase with a Barrier after the last shared
// access; after that barrier, no node references remote pages again.
package svm

import (
	"fmt"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/trace"
	"shrimp/internal/vmmc"
)

// mgrNode is the node running every region's lock/barrier manager.
const mgrNode = 0

// Config tunes a region.
type Config struct {
	// Home assigns each page a home node (default round-robin page%n).
	// Placing a page at its principal writer makes that writer's stores
	// plain local stores with no AU traffic at all.
	Home func(page int) int
}

// Page states of the per-page state machine.
type pageState uint8

const (
	stInvalid pageState = iota // no access; first touch faults
	stRead                     // clean local copy; stores fault
	stRW                       // writable, AU-bound to home, in the dirty set
)

// Stats are the per-region coherence counters, mirrored into the trace
// collector when one is attached.
type Stats struct {
	ReadFaults    int64 // read faults taken (each triggers a fetch)
	WriteFaults   int64 // write faults taken (upgrade to read-write)
	Fetches       int64 // whole pages pulled from a home
	FetchesServed int64 // fetch requests this node served as home
	FlushMarkers  int64 // release-time flush markers sent
	Invalidations int64 // pages invalidated by incoming write notices
	LockAcquires  int64
	LockReleases  int64
	Barriers      int64
}

// Control operations carried in service requests.
const (
	opFetch = iota + 1
	opFlush
	opLockAcq
	opLockRel
	opBarrier
)

// Region is one process's handle on a shared region of Pages pages. All
// participants call Join with identical (name, pages, cfg); Join returns
// once every peer is attached, so the region is usable immediately.
type Region struct {
	Name  string
	Pages int
	// Base is the local copy's virtual base address; app data lives here.
	Base kernel.VA

	c      *cluster.Cluster
	p      *kernel.Process
	ep     *vmmc.Endpoint
	me, n  int
	homeOf func(int) int

	svc     kernel.VA // local service area (ready/reply/ack/req slots)
	dataImp []*vmmc.Import
	svcImp  []*vmmc.Import

	state []pageState
	dirty []bool
	bound []bool
	seq   uint32

	lastReq []uint32    // last consumed request seq, per peer
	pool    []kernel.VA // staging buffers for outbound control records
	mgrSt   *manager    // non-nil on the manager node

	tc    *trace.Collector
	track string
	Stats Stats
}

// Service-area layout, in words. Every slot is written by exactly one peer
// and every control exchange is synchronous, so slots are single-writer
// single-outstanding by construction.
//
//	ready[j]  — peer j announces its Join is complete
//	reply     — [0]=seq, [1]=count, [2..2+Pages-1]=page list
//	ack[j]    — flush-marker acknowledgement from home j
//	req[j]    — [0]=seq, [1]=op, [2]=arg, [3]=count, [4..]=page list
func (r *Region) readyOff(j int) int { return j }
func (r *Region) replyOff() int      { return r.n }
func (r *Region) ackOff(j int) int   { return r.n + 2 + r.Pages + j }
func (r *Region) reqOff(j int) int   { return r.n + 2 + r.Pages + r.n + j*(4+r.Pages) }
func (r *Region) svcWords() int      { return r.n + 2 + r.Pages + r.n + r.n*(4+r.Pages) }

func (r *Region) svcVA(word int) kernel.VA { return r.svc + kernel.VA(word*hw.WordSize) }

// Join attaches this process to the named region and blocks until every
// participant has joined. Pages homed here start readable (the home copy is
// authoritative); all others start invalid and fault on first touch.
func Join(c *cluster.Cluster, p *kernel.Process, me, n int, name string, pages int, cfg Config) *Region {
	if cfg.Home == nil {
		cfg.Home = func(g int) int { return g % n }
	}
	r := &Region{
		Name: name, Pages: pages, c: c, p: p, me: me, n: n,
		homeOf:  cfg.Home,
		ep:      vmmc.Attach(p, c.Node(me).Daemon),
		state:   make([]pageState, pages),
		dirty:   make([]bool, pages),
		bound:   make([]bool, pages),
		lastReq: make([]uint32, n),
		dataImp: make([]*vmmc.Import, n),
		svcImp:  make([]*vmmc.Import, n),
		tc:      p.M.Trace,
		track:   p.M.Track("svm"),
	}
	if me == mgrNode {
		r.mgrSt = newManager(n, pages)
	}

	r.Base = p.MapPages(pages, 0)
	svcPages := (r.svcWords()*hw.WordSize + hw.Page - 1) / hw.Page
	r.svc = p.MapPages(svcPages, 0)

	if _, err := r.ep.Export(r.Base, pages, vmmc.ExportOpts{Name: r.dataName(me)}); err != nil {
		panic(fmt.Sprintf("svm: %s export data: %v", name, err)) //lint:allow transitive-panic join-time misconfiguration, not a request path
	}
	_, err := r.ep.Export(r.svc, svcPages, vmmc.ExportOpts{
		Name:       r.svcName(me),
		FastNotify: true,
		Handler:    func(nt vmmc.Notification) { r.onRequest(nt.SrcNode) },
	})
	if err != nil {
		panic(fmt.Sprintf("svm: %s export svc: %v", name, err)) //lint:allow transitive-panic join-time misconfiguration, not a request path
	}

	for j := 0; j < n; j++ {
		if j == me {
			continue
		}
		r.dataImp[j] = r.importRetry(j, r.dataName(j))
		r.svcImp[j] = r.importRetry(j, r.svcName(j))
	}

	// Initial page states: home pages readable, the rest invalid. The
	// region starts all-zero everywhere, so the copies agree.
	for g := 0; g < pages; g++ {
		if r.homeOf(g) == me {
			r.state[g] = stRead
			p.Mprotect(r.pageVA(g), 1, kernel.ProtRead)
		} else {
			p.Mprotect(r.pageVA(g), 1, kernel.ProtNone)
		}
	}

	prev := p.PageFaultHandler()
	p.OnPageFault(func(p *kernel.Process, f kernel.PageFault) {
		if f.VA >= r.Base && f.VA < r.Base+kernel.VA(pages*hw.Page) {
			r.handleFault(f)
			return
		}
		if prev != nil {
			prev(p, f)
			return
		}
		panic(fmt.Sprintf("svm: %s fault outside region va %#x with no chained handler", name, f.VA)) //lint:allow transitive-panic protection fault outside any managed region is a program bug
	})

	// Rendezvous without the manager: announce readiness directly into
	// every peer's ready slot, then wait for all peers. A peer only sees
	// our ready word after our imports completed, so once the wait
	// clears, every node can serve and send requests.
	ann := r.getStage()
	r.p.WriteWord(ann, 1)
	for j := 0; j < n; j++ {
		if j == me {
			continue
		}
		if err := r.ep.Send(r.svcImp[j], r.readyOff(me)*hw.WordSize, ann, hw.WordSize); err != nil {
			panic(fmt.Sprintf("svm: %s join announce to %d: %v", name, j, err)) //lint:allow transitive-panic join-time failure before steady state
		}
	}
	r.putStage(ann)
	for j := 0; j < n; j++ {
		if j == me {
			continue
		}
		r.p.WaitWord(r.svcVA(r.readyOff(j)), func(v uint32) bool { return v == 1 })
	}
	return r
}

func (r *Region) dataName(j int) string { return fmt.Sprintf("svm:%s:d%d", r.Name, j) }
func (r *Region) svcName(j int) string  { return fmt.Sprintf("svm:%s:s%d", r.Name, j) }

func (r *Region) pageVA(g int) kernel.VA { return r.Base + kernel.VA(g*hw.Page) }

// importRetry polls until the peer's export appears (peers join in
// arbitrary order), like the message-passing libraries' attach loops.
func (r *Region) importRetry(node int, name string) *vmmc.Import {
	for try := 0; ; try++ {
		imp, err := r.ep.Import(node, name)
		if err == nil {
			return imp
		}
		if try > 10000 {
			panic(fmt.Sprintf("svm: import %s from %d: %v", name, node, err)) //lint:allow transitive-panic join never completed; simulation is wedged anyway
		}
		r.p.P.Sleep(200 * time.Microsecond)
	}
}

// getStage pops a staging buffer for one outbound control record. Handlers
// nest (a blocking send inside one handler lets another run), so staging
// cannot be a single shared buffer; a small free list keeps allocation
// bounded and deterministic.
func (r *Region) getStage() kernel.VA {
	if len(r.pool) > 0 {
		va := r.pool[len(r.pool)-1]
		r.pool = r.pool[:len(r.pool)-1]
		return va
	}
	return r.p.Alloc((5+r.Pages)*hw.WordSize, hw.WordSize)
}

func (r *Region) putStage(va kernel.VA) { r.pool = append(r.pool, va) }

// encodeWords stores ws as little-endian words at va (charged as one store
// burst).
func (r *Region) encodeWords(va kernel.VA, ws []uint32) {
	b := make([]byte, len(ws)*hw.WordSize)
	for i, w := range ws {
		b[4*i] = byte(w)
		b[4*i+1] = byte(w >> 8)
		b[4*i+2] = byte(w >> 16)
		b[4*i+3] = byte(w >> 24)
	}
	r.p.WriteBytes(va, b)
}

// request performs one synchronous control operation against node t. The
// payload (op, arg, page list) is sent first; the sequence word follows
// with the notification flag, so the handler never sees a half-written
// record (VMMC delivers a sender's packets in order). If wantReply is
// true, it blocks for the reply and returns the reply's page list.
func (r *Region) request(t int, op, arg int, pages []int, wantReply bool) []int {
	r.seq++
	seq := r.seq
	st := r.getStage()
	words := make([]uint32, 0, 3+len(pages))
	words = append(words, uint32(op), uint32(arg), uint32(len(pages)))
	for _, g := range pages {
		words = append(words, uint32(g))
	}
	r.encodeWords(st+hw.WordSize, words)
	base := r.reqOff(r.me)
	if err := r.ep.Send(r.svcImp[t], (base+1)*hw.WordSize, st+hw.WordSize, len(words)*hw.WordSize); err != nil {
		panic(fmt.Sprintf("svm: %s request to %d: %v", r.Name, t, err)) //lint:allow transitive-panic revoked import means a peer died without the fault plan declaring it
	}
	r.p.WriteWord(st, seq)
	if err := r.ep.SendNotify(r.svcImp[t], base*hw.WordSize, st, hw.WordSize); err != nil {
		panic(fmt.Sprintf("svm: %s request notify to %d: %v", r.Name, t, err)) //lint:allow transitive-panic revoked import means a peer died without the fault plan declaring it
	}
	r.putStage(st)
	if !wantReply {
		return nil
	}
	return r.waitReply(seq)
}

// waitReply blocks until the reply slot carries seq, then decodes its page
// list.
func (r *Region) waitReply(seq uint32) []int {
	r.p.WaitWord(r.svcVA(r.replyOff()), func(v uint32) bool { return v == seq })
	count := int(r.p.ReadWord(r.svcVA(r.replyOff() + 1)))
	pages := make([]int, count)
	for i := 0; i < count; i++ {
		pages[i] = int(r.p.ReadWord(r.svcVA(r.replyOff() + 2 + i)))
	}
	return pages
}

// reply completes node src's outstanding operation, carrying a page list
// (write notices; empty for plain acks). The payload lands before the
// sequence word for the same in-order reason as request.
func (r *Region) reply(src int, seq uint32, pages []int) {
	if src == r.me {
		words := make([]uint32, 1+len(pages))
		words[0] = uint32(len(pages))
		for i, g := range pages {
			words[1+i] = uint32(g)
		}
		r.encodeWords(r.svcVA(r.replyOff()+1), words)
		r.p.WriteWord(r.svcVA(r.replyOff()), seq)
		return
	}
	st := r.getStage()
	words := make([]uint32, 1+len(pages))
	words[0] = uint32(len(pages))
	for i, g := range pages {
		words[1+i] = uint32(g)
	}
	r.encodeWords(st+hw.WordSize, words)
	if err := r.ep.Send(r.svcImp[src], (r.replyOff()+1)*hw.WordSize, st+hw.WordSize, len(words)*hw.WordSize); err != nil {
		panic(fmt.Sprintf("svm: %s reply to %d: %v", r.Name, src, err)) //lint:allow transitive-panic revoked import means a peer died without the fault plan declaring it
	}
	r.p.WriteWord(st, seq)
	if err := r.ep.Send(r.svcImp[src], r.replyOff()*hw.WordSize, st, hw.WordSize); err != nil {
		panic(fmt.Sprintf("svm: %s reply seq to %d: %v", r.Name, src, err)) //lint:allow transitive-panic revoked import means a peer died without the fault plan declaring it
	}
	r.putStage(st)
}

// onRequest services one control message from peer src: read the request
// record, dispatch. Runs in this process's context via fast notification,
// nested inside whatever the process was doing.
func (r *Region) onRequest(src int) {
	base := r.reqOff(src)
	seq := r.p.ReadWord(r.svcVA(base))
	if seq == r.lastReq[src] {
		return // duplicate delivery of an already-consumed request
	}
	r.lastReq[src] = seq
	op := int(r.p.ReadWord(r.svcVA(base + 1)))
	arg := int(r.p.ReadWord(r.svcVA(base + 2)))
	count := int(r.p.ReadWord(r.svcVA(base + 3)))
	pages := make([]int, count)
	for i := 0; i < count; i++ {
		pages[i] = int(r.p.ReadWord(r.svcVA(base + 4 + i)))
	}

	switch op {
	case opFetch:
		r.serveFetch(src, seq, arg)
	case opFlush:
		// The marker arrived, so (sender-to-us FIFO) every AU store the
		// releaser made to pages homed here has already landed in the
		// home copy. Acknowledge into the releaser's per-home ack slot.
		st := r.getStage()
		r.p.WriteWord(st, seq)
		if err := r.ep.Send(r.svcImp[src], r.ackOff(r.me)*hw.WordSize, st, hw.WordSize); err != nil {
			panic(fmt.Sprintf("svm: %s flush ack to %d: %v", r.Name, src, err)) //lint:allow transitive-panic revoked import means a peer died without the fault plan declaring it
		}
		r.putStage(st)
	case opLockAcq, opLockRel, opBarrier:
		r.mgrSt.submit(r, waiter{node: src, seq: seq}, op, arg, pages)
	default:
		panic(fmt.Sprintf("svm: %s bad op %d from %d", r.Name, op, src)) //lint:allow transitive-panic corrupt control record indicates a simulation bug
	}
}

// serveFetch ships the current home copy of page g to the requester with
// one deliberate-update transfer, then completes the request. Data first,
// reply second: in-order delivery makes the page visible before the fault
// handler resumes.
func (r *Region) serveFetch(src int, seq uint32, g int) {
	sp := r.tc.Begin(r.track, "fetch.serve")
	if err := r.ep.Send(r.dataImp[src], g*hw.Page, r.pageVA(g), hw.Page); err != nil {
		panic(fmt.Sprintf("svm: %s fetch page %d to %d: %v", r.Name, g, src, err)) //lint:allow transitive-panic revoked import means a peer died without the fault plan declaring it
	}
	r.reply(src, seq, nil)
	r.Stats.FetchesServed++
	r.tc.Count(r.track, "fetch.serve", 1)
	sp.End()
}

// sortedDirty returns the current dirty set in page order.
func (r *Region) sortedDirty() []int {
	var out []int
	for g := 0; g < r.Pages; g++ {
		if r.dirty[g] {
			out = append(out, g)
		}
	}
	return out
}

// dirtyHomes returns the remote homes covering the dirty set, in node order.
func (r *Region) dirtyHomes(dirty []int) []int {
	seen := make([]bool, r.n)
	for _, g := range dirty {
		if h := r.homeOf(g); h != r.me {
			seen[h] = true
		}
	}
	var homes []int
	for h, on := range seen {
		if on {
			homes = append(homes, h)
		}
	}
	return homes
}
