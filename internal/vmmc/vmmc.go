// Package vmmc implements virtual memory-mapped communication — the paper's
// primary contribution (Section 2). It is the "thin layer library" of Figure
// 1: it provides user processes direct access to the network for data
// transfers, and talks to the SHRIMP daemon for import-export mapping
// management.
//
// The model in brief:
//
//   - A receiving process exports a region of its address space as a receive
//     buffer with a set of permissions. A sender imports it; after import,
//     data moves between user address spaces with no protection-domain
//     crossing.
//   - Two transfer strategies: deliberate update (an explicit, blocking send
//     backed by the NIC's DMA engine) and automatic update (local stores to
//     bound pages propagate to the remote buffer automatically).
//   - Transfers are delivered reliably and in order (blocking deliberate
//     update), so control information written after data arrives after it.
//   - There is no receive operation and no buffer management: received data
//     lands directly in memory, and the receiver typically just checks a
//     flag. Notifications (queued, blockable, per-buffer handlers) provide
//     control transfer when polling is inappropriate.
package vmmc

import (
	"errors"
	"fmt"

	"shrimp/internal/daemon"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// Errors returned by the VMMC calls.
var (
	// ErrAlignment: the hardware requires word-aligned source and
	// destination addresses and whole-word lengths for deliberate update.
	ErrAlignment = errors.New("vmmc: deliberate update requires word alignment")
	// ErrRange: transfer exceeds the imported buffer.
	ErrRange = errors.New("vmmc: transfer outside imported buffer")
	// ErrRevoked: the mapping was destroyed.
	ErrRevoked = errors.New("vmmc: mapping revoked")
	// ErrPeerDead: the remote node crashed and the daemon reclaimed the
	// mapping; the import handle is unusable (its OPT entries are freed).
	ErrPeerDead = errors.New("vmmc: peer node dead, mapping reclaimed")
)

// Endpoint is a process's attachment to the VMMC layer.
type Endpoint struct {
	Proc *kernel.Process
	D    *daemon.Daemon

	exports []*Export

	// duSlots pools the blocking send's DU job handle and chunk list, one
	// per nesting level in use (duDepth): a notification handler may send
	// while an outer send waits out its source read.
	duSlots []duSlot
	duDepth int

	// tc/track: the node's observability collector (nil-safe) and this
	// layer's precomputed track name ("node3/vmmc").
	tc    *trace.Collector
	track string

	// notes holds the signal-path notifications not yet delivered, in
	// arrival order; while blocked is set they stay queued (the paper:
	// "unlike signals, however, notifications are queued when blocked").
	// deliver is the interrupt an arrival queues, built at the first: it
	// charges the signal delivery cost and drains notes.
	notes   []Notification
	blocked bool
	deliver func(*sim.Proc)
}

// duSlot is one nesting level's reusable deliberate-update job.
type duSlot struct {
	job    *nic.DUJob
	chunks []nic.DUChunk
}

// Attach connects a process to VMMC on its node.
func Attach(p *kernel.Process, d *daemon.Daemon) *Endpoint {
	return &Endpoint{Proc: p, D: d, tc: p.M.Trace, track: p.M.Track("vmmc")}
}

// Notification reports the arrival of a notifying transfer into an export.
type Notification struct {
	Export  *Export
	SrcNode int
}

// Handler is a user-level notification handler function.
type Handler func(n Notification)

// ExportOpts configures an export.
type ExportOpts struct {
	// Name publishes the export for importers. Required to be importable.
	Name string
	// Handler, when non-nil, enables notifications on this buffer
	// ("notifications only take effect when a handler has been
	// specified").
	Handler Handler
	// Allowed restricts importing nodes (nil = any): the export's
	// permission set.
	Allowed []int
	// FastNotify selects the active-message-style notification path the
	// paper planned as the signals replacement (Section 2.3): arrivals
	// post a record to a user-level queue and the handler runs at the
	// process's next poll or yield point — no interrupt, no signal
	// machinery, and well under a microsecond of software. Fast
	// notifications are not subject to BlockNotifications (they bypass
	// the endpoint's blocked queue); use SetDiscard for per-buffer control.
	FastNotify bool
}

// Export is an exported receive buffer.
type Export struct {
	ep      *Endpoint
	rec     *daemon.ExportRec
	VA      kernel.VA
	Pages   int
	handler Handler
	discard bool
	// queue holds the delivered notifications no Wait has taken yet. It
	// fills only from the export's first Wait on: a buffer served by its
	// handler alone (NX's doorbell, SVM's page requests) keeps none.
	queue  []Notification
	waited bool
	avail  *sim.Cond
	dead   bool
}

// Export publishes pages of the process's address space as a receive buffer.
// va must be page-aligned (the incoming page table is per-page).
func (ep *Endpoint) Export(va kernel.VA, pages int, opts ExportOpts) (*Export, error) {
	e := &Export{ep: ep, VA: va, Pages: pages, handler: opts.Handler,
		avail: sim.NewCond(ep.Proc.M.Eng)}
	rec, err := ep.D.Export(ep.Proc, opts.Name, va, pages, opts.Handler != nil, opts.FastNotify, e, opts.Allowed)
	if err != nil {
		return nil, err
	}
	e.rec = rec
	ep.exports = append(ep.exports, e)
	return e, nil
}

// NotifyArrival implements daemon.Notifiable: the NIC raised a notification
// interrupt for this buffer. Runs in interrupt context. The notification
// joins the endpoint's queue and, unless notifications are blocked, an
// interrupt delivers it to the process at the signal path's cost (the
// prototype carried notifications on UNIX signals).
func (e *Export) NotifyArrival(srcNode int) {
	if e.dead || e.discard {
		return
	}
	ep := e.ep
	ep.tc.Count(ep.track, "notify.signal", 1)
	ep.notes = append(ep.notes, Notification{Export: e, SrcNode: srcNode})
	if ep.blocked || ep.Proc.Exited() {
		return
	}
	if ep.deliver == nil {
		ep.deliver = func(sp *sim.Proc) {
			sp.Sleep(hw.SignalDeliveryCost)
			ep.drain()
		}
	}
	ep.Proc.P.Interrupt(ep.deliver)
}

// drain dispatches the queued notifications in arrival order until the
// queue empties or a handler blocks notifications.
func (ep *Endpoint) drain() {
	for !ep.blocked && len(ep.notes) > 0 {
		n := ep.notes[0]
		// Shift rather than reslice, so the queue keeps its capacity.
		ep.notes = ep.notes[:copy(ep.notes, ep.notes[1:])]
		n.Export.dispatch(n)
	}
}

// FastArrival implements daemon.Notifiable: the NIC posted a record to
// the user-level notification queue; the handler runs in the process
// context at its next poll or yield point, at user-level dispatch cost.
func (e *Export) FastArrival(srcNode int) {
	if e.dead || e.discard {
		return
	}
	e.ep.tc.Count(e.ep.track, "notify.fast", 1)
	e.ep.Proc.P.Interrupt(func(sp *sim.Proc) {
		sp.Sleep(hw.FastNotifyDispatch)
		e.dispatch(Notification{Export: e, SrcNode: srcNode})
	})
}

// dispatch runs in the process context when the notification is delivered.
func (e *Export) dispatch(n Notification) {
	if e.dead {
		return
	}
	if e.waited {
		e.queue = append(e.queue, n)
	}
	e.avail.Broadcast()
	if e.handler != nil {
		e.handler(n)
	}
}

// SetDiscard controls per-buffer acceptance: while true, notifications for
// this buffer are discarded rather than queued (paper Section 2.3).
func (e *Export) SetDiscard(on bool) { e.discard = on }

// Wait suspends the process until a notification for this particular buffer
// arrives, and returns it. Notifications are temporarily unblocked so
// queued ones can drain into per-buffer queues. From the first Wait on, the
// buffer queues every delivered notification for the next Wait; ones
// delivered before it reached only the handler.
func (e *Export) Wait() Notification {
	ep := e.ep
	e.waited = true
	wasBlocked := ep.blocked
	if wasBlocked {
		ep.UnblockNotifications()
	}
	for len(e.queue) == 0 && !e.dead {
		e.avail.Wait(ep.Proc.P)
	}
	if wasBlocked {
		ep.BlockNotifications()
	}
	if len(e.queue) == 0 {
		return Notification{Export: e}
	}
	n := e.queue[0]
	e.queue = e.queue[1:]
	return n
}

// Pending returns the number of notifications queued for this buffer's
// next Wait (none before its first Wait).
func (e *Export) Pending() int { return len(e.queue) }

// Unexport destroys the export after draining pending traffic.
func (ep *Endpoint) Unexport(e *Export) error {
	if e.dead {
		return ErrRevoked
	}
	if err := ep.D.Unexport(ep.Proc, e.rec); err != nil {
		return err
	}
	e.dead = true
	e.avail.Broadcast()
	return nil
}

// BlockNotifications defers notification delivery; notifications queue.
func (ep *Endpoint) BlockNotifications() { ep.blocked = true }

// UnblockNotifications resumes delivery, draining the queue.
func (ep *Endpoint) UnblockNotifications() {
	ep.blocked = false
	ep.drain()
}

// Import is an imported remote receive buffer.
type Import struct {
	ep   *Endpoint
	rec  *daemon.ImportRec
	Node int
	Size int
	dead bool
}

// Import maps a named export on the given node into this process's reach.
func (ep *Endpoint) Import(node int, name string) (*Import, error) {
	rec, err := ep.D.Import(ep.Proc, node, name)
	if err != nil {
		return nil, err
	}
	return &Import{ep: ep, rec: rec, Node: node, Size: rec.Pages * hw.Page}, nil
}

// Unimport destroys the mapping after pending messages drain.
func (ep *Endpoint) Unimport(imp *Import) error {
	if imp.dead {
		return ErrRevoked
	}
	imp.dead = true
	return ep.D.Unimport(ep.Proc, imp.rec)
}

// Send performs a blocking deliberate-update transfer of n bytes from srcVA
// in the caller's address space to offset dstOff in the imported buffer. It
// returns when the source data has been read out of main memory (safe to
// reuse), which — with in-order delivery — is also the point after which any
// subsequently sent data arrives later at the receiver.
func (ep *Endpoint) Send(imp *Import, dstOff int, srcVA kernel.VA, n int) error {
	return ep.send(imp, dstOff, srcVA, n, false)
}

// SendNotify is Send with the destination-interrupt flag set on the final
// packet, triggering a notification if the receiver enabled one.
func (ep *Endpoint) SendNotify(imp *Import, dstOff int, srcVA kernel.VA, n int) error {
	return ep.send(imp, dstOff, srcVA, n, true)
}

// AsyncSend is the handle of a non-blocking deliberate-update send.
type AsyncSend struct {
	job *nic.DUJob
	ep  *Endpoint
}

// Wait blocks until the source data has been read out of main memory (the
// point at which the buffer may be reused and after which later sends are
// ordered behind this one).
func (a *AsyncSend) Wait() { a.job.Wait(a.ep.Proc.P) }

// Done reports whether the source read has completed.
func (a *AsyncSend) Done() bool { return a.job.ReadDone() }

// SendAsync is the non-blocking deliberate-update send (paper Section 2.2).
// It queues the transfer and returns immediately; the source buffer must
// not be modified until Wait (or Done) reports completion. The in-order
// delivery guarantee VMMC makes for blocking sends is weaker here: a
// subsequent automatic-update store can reach the wire before a queued
// non-blocking send's data has been read, so protocols that signal
// completion with a separate control write must Wait first — exactly the
// complication the paper alludes to ("the ordering guarantees are a bit
// more complicated when the non-blocking deliberate-update send operation
// is used").
func (ep *Endpoint) SendAsync(imp *Import, dstOff int, srcVA kernel.VA, n int) (*AsyncSend, error) {
	if imp.dead {
		return nil, ErrRevoked
	}
	if imp.rec.Reaped() {
		return nil, ErrPeerDead
	}
	if imp.rec.Released() {
		return nil, ErrRevoked
	}
	if srcVA%hw.WordSize != 0 || dstOff%hw.WordSize != 0 || n%hw.WordSize != 0 {
		return nil, ErrAlignment
	}
	if n < 0 || dstOff < 0 || dstOff+n > imp.Size {
		return nil, ErrRange
	}
	p := ep.Proc
	init := ep.tc.Begin(ep.track, "du.init")
	for i := 0; i < 2; i++ {
		_, end := ep.D.NIC.EISA().Reserve(hw.DUInitAccess)
		p.P.Sleep(end.Sub(p.P.Now()))
	}
	init.End()
	chunks, err := ep.duChunks(nil, imp, dstOff, srcVA, n, false)
	if err != nil {
		return nil, err
	}
	ep.tc.Count(ep.track, "du.async.sends", 1)
	ep.tc.Count(ep.track, "du.bytes", int64(n))
	return &AsyncSend{job: ep.D.NIC.SubmitDU(chunks), ep: ep}, nil
}

func (ep *Endpoint) send(imp *Import, dstOff int, srcVA kernel.VA, n int, notify bool) error {
	if imp.dead {
		return ErrRevoked
	}
	if imp.rec.Reaped() {
		return ErrPeerDead
	}
	if imp.rec.Released() {
		return ErrRevoked
	}
	if srcVA%hw.WordSize != 0 || dstOff%hw.WordSize != 0 || n%hw.WordSize != 0 {
		return ErrAlignment
	}
	if n < 0 || dstOff < 0 || dstOff+n > imp.Size {
		return ErrRange
	}
	if n == 0 {
		return nil
	}
	p := ep.Proc
	span := ep.tc.Begin(ep.track, "du.send")
	if ep.duDepth == len(ep.duSlots) {
		ep.duSlots = append(ep.duSlots, duSlot{})
	}
	depth := ep.duDepth
	ep.duDepth++
	defer ep.endSend()

	// The two-access transfer initiation sequence: user-level programmed
	// I/O to addresses decoded by the NIC on the EISA bus.
	init := ep.tc.Begin(ep.track, "du.init")
	for i := 0; i < 2; i++ {
		_, end := ep.D.NIC.EISA().Reserve(hw.DUInitAccess)
		p.P.Sleep(end.Sub(p.P.Now()))
	}
	init.End()

	// A nested send may have grown ep.duSlots; index it only now.
	slot := &ep.duSlots[depth]
	chunks, err := ep.duChunks(slot.chunks[:0], imp, dstOff, srcVA, n, notify)
	if err != nil {
		span.End()
		return err
	}
	slot.chunks = chunks
	ep.tc.Count(ep.track, "du.sends", 1)
	ep.tc.Count(ep.track, "du.bytes", int64(n))
	if slot.job == nil {
		slot.job = ep.D.NIC.SubmitDU(chunks)
	} else {
		ep.D.NIC.ResubmitDU(slot.job, chunks)
	}
	slot.job.Wait(p.P)
	span.End()
	return nil
}

// endSend releases the innermost blocking-send slot.
func (ep *Endpoint) endSend() { ep.duDepth-- }

// duChunks translates and splits a transfer, appending the pieces to
// chunks: packets must not cross source pages (DMA is physically
// contiguous), destination pages (the header addresses one page), or the
// maximum payload.
func (ep *Endpoint) duChunks(chunks []nic.DUChunk, imp *Import, dstOff int, srcVA kernel.VA, n int, notify bool) ([]nic.DUChunk, error) {
	p := ep.Proc
	off := 0
	for off < n {
		srcPA, err := p.Translate(srcVA + kernel.VA(off))
		if err != nil {
			return nil, fmt.Errorf("vmmc: send source: %w", err)
		}
		c := n - off
		if room := hw.Page - int(srcPA)%hw.Page; c > room {
			c = room
		}
		d := dstOff + off
		if room := hw.Page - d%hw.Page; c > room {
			c = room
		}
		if c > hw.MaxPacketPayload {
			c = hw.MaxPacketPayload
		}
		chunks = append(chunks, nic.MakeDUChunk(srcPA, imp.rec.OPTBase+d/hw.Page, uint32(d%hw.Page), c, false))
		off += c
	}
	if notify && len(chunks) > 0 {
		chunks[len(chunks)-1].Notify = true
	}
	return chunks, nil
}

// AUOpts configures an automatic-update binding.
type AUOpts struct {
	// Combine enables hardware write-combining of consecutive stores,
	// with the flush timeout on an open combined packet.
	Combine bool
	// Uncached maps the local pages uncached instead of write-through
	// (lower one-word latency; Section 3.4 measures both).
	Uncached bool
}

// Binding is an active automatic-update binding.
type Binding struct {
	ep      *Endpoint
	imp     *Import
	LocalVA kernel.VA
	Pages   int
	dead    bool
}

// BindAU binds pages of local address space starting at localVA (page-
// aligned) to the imported buffer's pages starting at page dstPage. All
// stores to the bound pages propagate to the remote buffer automatically —
// "eliminating the need for an explicit send operation".
func (ep *Endpoint) BindAU(localVA kernel.VA, imp *Import, dstPage, pages int, opts AUOpts) (*Binding, error) {
	if imp.dead {
		return nil, ErrRevoked
	}
	if imp.rec.Reaped() {
		return nil, ErrPeerDead
	}
	if imp.rec.Released() {
		return nil, ErrRevoked
	}
	err := ep.D.BindAU(ep.Proc, imp.rec, localVA, pages, dstPage, opts.Combine, opts.Uncached)
	if err != nil {
		return nil, err
	}
	ep.tc.Count(ep.track, "au.bindings", 1)
	return &Binding{ep: ep, imp: imp, LocalVA: localVA, Pages: pages}, nil
}

// UnbindAU removes the binding (open combined packets are flushed).
func (ep *Endpoint) UnbindAU(b *Binding) error {
	if b.dead {
		return ErrRevoked
	}
	b.dead = true
	ep.D.UnbindAU(ep.Proc, b.imp.rec, b.LocalVA, b.Pages)
	return nil
}
