// Package daemon implements the SHRIMP daemons: trusted servers, one per
// node, that cooperate to establish and destroy import-export mappings
// between user processes (paper Section 3.3). The daemons are the "trusted
// third party" of the VMMC protection model: only they program the network
// interface's outgoing and incoming page tables, and they do so over the
// commodity Ethernet control network, keeping the kernel and the daemons off
// the data path entirely.
//
// Local operations (export, and the local half of import/unimport/unexport)
// execute in the calling process's context as a privileged library, charged
// a fixed local-IPC cost; daemon-to-daemon traffic crosses the Ethernet.
package daemon

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"shrimp/internal/ether"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/mem"
	"shrimp/internal/mesh"
	"shrimp/internal/nic"
	"shrimp/internal/retry"
)

// Port is the well-known Ethernet port the daemon listens on.
const Port = 1

// rpcTimeout bounds every daemon-to-daemon Ethernet RPC in a world of up to
// 16 nodes; New scales it linearly for larger ones. A dead peer can never
// answer; rather than parking the caller forever, the call gives up and the
// operation reports the peer unreachable (Import) or proceeds best-effort
// (release/revoke — the peer that would act on it is gone). The control
// Ethernet is shared, so a 256-node boot storm legitimately queues RPCs for
// tens of milliseconds, and timing those out would just feed the congestion.
const rpcTimeout = 5 * time.Millisecond

// importRetry paces Import's retries when the peer daemon does not answer
// in time: a lossy or gray control network deserves a few backed-off
// attempts before the exporter is declared unreachable, but a true
// partition must not be hammered at the RPC period forever.
var importRetry = retry.Policy{Base: 500 * time.Microsecond, Factor: 2, Jitter: 0.5, Budget: 2}

// ErrReleased reports an Unimport of a mapping that was already released —
// by an earlier Unimport, by the exporter's revocation, or by dead-node
// garbage collection. Teardown code may see it on any of those races and
// should treat it as "already done".
var ErrReleased = errors.New("daemon: import mapping already released")

// ErrRevoked reports an Unexport of an export that was already revoked.
var ErrRevoked = errors.New("daemon: export already revoked")

// LocalIPCCost approximates one request/response exchange with the local
// daemon over a Unix-domain socket (export/import bookkeeping is off the
// communication fast path, so precision is unimportant).
const LocalIPCCost = 25 * time.Microsecond

// Notifiable is implemented by the VMMC layer's export object, the
// notification target of every exported page. The daemon's notification
// interrupt handler calls NotifyArrival when the NIC raises VecNotify for a
// tagged page; the NIC's fast-notification hook calls FastArrival for
// exports that opted into the active-message-style path, where the record
// is posted to the user-level queue directly, with no interrupt.
type Notifiable interface {
	NotifyArrival(srcNode int)
	FastArrival(srcNode int)
}

// ExportRec is the daemon's record of one exported receive buffer.
type ExportRec struct {
	ID     uint32
	Name   string
	Owner  *kernel.Process
	Base   kernel.VA
	Frames []mem.PFN
	// Allowed lists importer nodes permitted by the export's permissions;
	// nil means any node.
	Allowed []int

	importers map[importRef]bool
	revoked   bool
}

// importRef names one Import call's reference on an export: the importing
// node and the nonce its request carried. A retried request carries the
// same nonce, so the reference is counted once however many copies of the
// request arrive.
type importRef struct {
	node, nonce int
}

// ImportRec is the daemon's record of one imported remote buffer.
type ImportRec struct {
	Exporter int
	ExportID uint32
	Name     string
	OPTBase  int
	Pages    int
	nonce    int // the importRef nonce this mapping's release names
	released bool
	reaped   bool
}

// Released reports whether the mapping has been torn down — by Unimport, by
// the exporter's revocation, or by dead-node garbage collection. The VMMC
// layer checks it to fail sends instead of writing through freed OPT
// entries.
func (rec *ImportRec) Released() bool { return rec.released }

// Reaped reports whether the mapping was torn down specifically because the
// exporting node crashed (dead-node garbage collection), letting callers
// distinguish a dead peer from an orderly revocation.
func (rec *ImportRec) Reaped() bool { return rec.reaped }

// Daemon is one node's SHRIMP daemon.
type Daemon struct {
	NodeID int
	M      *kernel.Machine
	NIC    *nic.NIC
	Mesh   *mesh.Network
	Ether  *ether.Network

	port    *ether.Port
	proc    *kernel.Process
	exports map[uint32]*ExportRec
	byName  map[string]*ExportRec
	// imports is kept in import order: revocation walks it front to back,
	// so the order mappings are torn down in is deterministic.
	imports   []*ImportRec
	nextID    uint32
	nextEphem int
	// targets holds the notification target of every export made with
	// one; an exported page's IPT tag is its target's index plus one (0:
	// none). A slot is never reused, so a notification raised just before
	// an unexport still reaches its own export.
	targets []Notifiable

	// rpcDeadline bounds every daemon-to-daemon Ethernet RPC.
	rpcDeadline time.Duration

	// FaultHook, if set, observes receive-path protection faults instead
	// of the default panic (tests use this; a healthy system never
	// faults).
	FaultHook func(f nic.ProtectionFault)

	// ReapedImports and ReapedExportRefs count mappings garbage-collected
	// by dead-node announcements (for tests and chaos reports).
	ReapedImports    int
	ReapedExportRefs int
}

// --- Ethernet message types ---

// importReq and releaseReq carry the importer's nonce (its request port
// number, unique for the daemon's life) so the exporter's reference count
// is idempotent per Import call.
type importReq struct {
	Name  string
	From  int
	Nonce int
}

type importResp struct {
	Err      string
	ExportID uint32
	Frames   []mem.PFN
}

type releaseReq struct {
	ExportID uint32
	From     int
	Nonce    int
}

type releaseResp struct{}

type revokeReq struct {
	Exporter int
	ExportID uint32
}

type revokeResp struct{}

// DeadNode announces that a node has crashed. It is injected by the fabric
// (cluster fault machinery) to every surviving daemon, which garbage-collects
// the mappings it shared with the dead node. No reply is sent — the sender
// is the network itself.
type DeadNode struct {
	Node int
}

// New creates the daemon for a node and starts its service process.
func New(nodeID int, m *kernel.Machine, n *nic.NIC, msh *mesh.Network, eth *ether.Network) *Daemon {
	d := &Daemon{
		NodeID:      nodeID,
		M:           m,
		NIC:         n,
		Mesh:        msh,
		Ether:       eth,
		rpcDeadline: rpcTimeout * time.Duration(max(msh.Nodes(), 16)) / 16,
		exports:     make(map[uint32]*ExportRec),
		byName:      make(map[string]*ExportRec),
		nextEphem:   1000,
	}
	d.port = eth.Bind(ether.Addr{Node: nodeID, Port: Port})
	d.proc = m.Spawn("shrimpd", d.serve)
	// The daemon parks on its port forever by design; the deadlock watchdog
	// must not count it among the blocked.
	d.proc.P.MarkService()
	m.RegisterIRQ(nic.VecProtection, d.onFault)
	m.RegisterIRQ(nic.VecNotify, d.onNotify)
	n.FastNotifyHook = func(tag int32, src mesh.NodeID) {
		if t := d.target(tag); t != nil {
			t.FastArrival(int(src))
		}
	}
	return d
}

// target returns the notification target an IPT tag names, nil for 0.
func (d *Daemon) target(tag int32) Notifiable {
	if tag == 0 {
		return nil
	}
	return d.targets[tag-1]
}

func (d *Daemon) onFault(data any) {
	f := data.(nic.ProtectionFault)
	if d.FaultHook != nil {
		d.FaultHook(f)
		return
	}
	if f.Forced {
		// Injected fault: the frozen head packet is innocent, so retry it
		// rather than dropping (nic.ProtectionFault.Forced).
		d.NIC.Unfreeze(false)
		return
	}
	// An unforced fault means the daemons' own export/revoke protocol let
	// a packet reach a disabled page. The handler runs in event context
	// with no caller to hand an error to, and dropping the packet would
	// silently lose data a sender believes delivered.
	panic(fmt.Sprintf("shrimpd%d: receive-path protection fault: frame %d from node %d",
		d.NodeID, f.Frame, f.Src))
}

func (d *Daemon) onNotify(data any) {
	n := data.(*nic.Notify)
	tag, src := n.Tag, n.Src
	n.Release()
	if t := d.target(tag); t != nil {
		t.NotifyArrival(int(src))
	}
}

// serve is the daemon's Ethernet service loop, handling requests from peer
// daemons.
func (d *Daemon) serve(p *kernel.Process) {
	for {
		m := d.port.Recv(p.P)
		if m == nil {
			return
		}
		switch req := m.Payload.(type) {
		case importReq:
			resp := d.handleImport(p, req)
			d.port.Send(p.P, m.From, 64+4*len(resp.Frames), resp)
		case releaseReq:
			d.handleRelease(req)
			d.port.Send(p.P, m.From, 16, releaseResp{})
		case revokeReq:
			d.handleRevoke(p, req)
			d.port.Send(p.P, m.From, 16, revokeResp{})
		case DeadNode:
			// Fabric-originated announcement; no reply (there is no sender).
			d.reapDeadNode(p, req.Node)
		default:
			// The port carries only this package's request types;
			// anything else is a wiring bug, and dropping it would park
			// its sender forever.
			panic(fmt.Sprintf("shrimpd%d: unknown request %T", d.NodeID, m.Payload))
		}
	}
}

func (d *Daemon) handleImport(p *kernel.Process, req importReq) importResp {
	rec, ok := d.byName[req.Name]
	if !ok || rec.revoked {
		return importResp{Err: fmt.Sprintf("no export %q on node %d", req.Name, d.NodeID)}
	}
	if !rec.permits(req.From) {
		return importResp{Err: fmt.Sprintf("export %q denies node %d", req.Name, req.From)}
	}
	rec.importers[importRef{req.From, req.Nonce}] = true
	return importResp{ExportID: rec.ID, Frames: rec.Frames}
}

func (rec *ExportRec) permits(node int) bool {
	if rec.Allowed == nil {
		return true
	}
	for _, n := range rec.Allowed {
		if n == node {
			return true
		}
	}
	return false
}

func (d *Daemon) handleRelease(req releaseReq) {
	if rec, ok := d.exports[req.ExportID]; ok {
		delete(rec.importers, importRef{req.From, req.Nonce})
	}
}

// handleRevoke invalidates every local import of the given remote export:
// quiesce the outgoing path so pending sends drain, then free the OPT
// entries.
func (d *Daemon) handleRevoke(p *kernel.Process, req revokeReq) {
	kept := d.imports[:0]
	for _, rec := range d.imports {
		if rec.Exporter == req.Exporter && rec.ExportID == req.ExportID && !rec.released {
			d.NIC.Quiesce(p.P)
			d.Mesh.WaitDrained(p.P, mesh.NodeID(d.NodeID), mesh.NodeID(req.Exporter))
			d.NIC.FreeOPT(rec.OPTBase, rec.Pages)
			rec.released = true
			continue
		}
		kept = append(kept, rec)
	}
	d.imports = kept
}

// reapDeadNode garbage-collects every mapping shared with a crashed node:
// imports of its exports are quiesced and their OPT entries freed (the pages
// they pointed at no longer exist), and its references on local exports are
// dropped so Unexport never tries to contact it.
func (d *Daemon) reapDeadNode(p *kernel.Process, node int) {
	kept := d.imports[:0]
	for _, rec := range d.imports {
		if rec.Exporter == node && !rec.released {
			d.NIC.Quiesce(p.P)
			d.Mesh.WaitDrained(p.P, mesh.NodeID(d.NodeID), mesh.NodeID(node))
			d.NIC.FreeOPT(rec.OPTBase, rec.Pages)
			rec.released = true
			rec.reaped = true
			d.ReapedImports++
			continue
		}
		kept = append(kept, rec)
	}
	d.imports = kept
	// Export bookkeeping only — no order-sensitive calls, so plain map
	// iteration is fine.
	for _, rec := range d.exports {
		for ref := range rec.importers {
			if ref.node == node {
				delete(rec.importers, ref)
				d.ReapedExportRefs++
			}
		}
	}
}

// Crash simulates the node dying from the daemon's point of view: its port
// closes (the serve loop exits) so peers' RPCs to it time out instead of
// queueing forever. Called by the cluster fault machinery alongside
// Machine.Crash and NIC.Crash.
func (d *Daemon) Crash() {
	d.port.Close()
}

// removeImport drops rec from the import list, preserving order.
func (d *Daemon) removeImport(rec *ImportRec) {
	for i, r := range d.imports {
		if r == rec {
			d.imports = append(d.imports[:i], d.imports[i+1:]...)
			return
		}
	}
}

// --- Local (same-node) operations, called from user process context ---

// Export registers a page-aligned region of proc's address space as a
// receive buffer: pages are pinned, IPT entries enabled, and the name
// published for importers. interrupt enables the receiver-side notification
// flag; fast selects the active-message-style delivery path; tag, if
// non-nil, receives the pages' notifications.
func (d *Daemon) Export(proc *kernel.Process, name string, va kernel.VA, pages int, interrupt, fast bool, tag Notifiable, allowed []int) (*ExportRec, error) {
	proc.Compute(LocalIPCCost)
	if va%hw.Page != 0 {
		return nil, fmt.Errorf("export: buffer %#x not page-aligned", va)
	}
	if _, dup := d.byName[name]; dup && name != "" {
		return nil, fmt.Errorf("export: name %q already exported on node %d", name, d.NodeID)
	}
	frames := make([]mem.PFN, pages)
	for i := 0; i < pages; i++ {
		pte, ok := proc.PTEOf(va + kernel.VA(i*hw.Page))
		if !ok {
			return nil, fmt.Errorf("export: page %#x not mapped", va+kernel.VA(i*hw.Page))
		}
		frames[i] = pte.Frame
	}
	d.nextID++
	rec := &ExportRec{
		ID: d.nextID, Name: name, Owner: proc, Base: va, Frames: frames,
		Allowed: allowed, importers: make(map[importRef]bool),
	}
	var tagIdx int32
	if tag != nil {
		d.targets = append(d.targets, tag)
		tagIdx = int32(len(d.targets))
	}
	for i, f := range frames {
		proc.SetFlags(kernel.PageOf(va)+kernel.VPN(i), kernel.FlagPinned)
		d.NIC.SetIPT(f, nic.IPTEntry{Enable: true, Interrupt: interrupt, FastNotify: fast, Tag: tagIdx})
	}
	d.exports[rec.ID] = rec
	if name != "" {
		d.byName[name] = rec
	}
	return rec, nil
}

// Import obtains a mapping to a named export on a (possibly remote) node.
// It allocates one OPT entry per exported page on the local NIC. The OPT
// entries are created with combining disabled; BindAU reconfigures them.
func (d *Daemon) Import(proc *kernel.Process, node int, name string) (*ImportRec, error) {
	proc.Compute(LocalIPCCost)
	port := d.ephemeralPort()
	defer port.Close()
	// The request RPC retries under jittered exponential backoff: a reply
	// lost to control-network congestion should not fail the import, but a
	// partitioned peer must not be hammered forever. The seed folds in the
	// ephemeral port number so concurrent importers decorrelate.
	// Every attempt carries the same nonce, the port number: a late reply
	// to an earlier attempt can answer a later one, and the exporter must
	// then hold one reference, not one per attempt.
	nonce := port.Addr().Port
	bo := retry.New(importRetry, retry.Seed(uint64(d.NodeID), uint64(node), uint64(nonce)))
	var reply *ether.Message
	for {
		reply = port.Call(proc.P, ether.Addr{Node: node, Port: Port}, 64, importReq{Name: name, From: d.NodeID, Nonce: nonce}, d.rpcDeadline)
		if reply != nil {
			break
		}
		wait, ok := bo.Next()
		if !ok {
			return nil, fmt.Errorf("import: daemon on node %d unreachable after %d attempts", node, bo.Attempts()+1)
		}
		proc.P.Sleep(wait)
	}
	resp := reply.Payload.(importResp)
	if resp.Err != "" {
		return nil, fmt.Errorf("import: %s", resp.Err)
	}
	base, err := d.NIC.AllocOPT(len(resp.Frames))
	if err != nil {
		// Give the reference back.
		port2 := d.ephemeralPort()
		port2.Call(proc.P, ether.Addr{Node: node, Port: Port}, 16, releaseReq{ExportID: resp.ExportID, From: d.NodeID, Nonce: nonce}, d.rpcDeadline)
		port2.Close()
		return nil, err
	}
	for i, f := range resp.Frames {
		d.NIC.SetOPT(base+i, nic.OPTEntry{Valid: true, DstNode: mesh.NodeID(node), DstPFN: f})
	}
	rec := &ImportRec{Exporter: node, ExportID: resp.ExportID, Name: name, OPTBase: base, Pages: len(resp.Frames), nonce: nonce}
	d.imports = append(d.imports, rec)
	return rec, nil
}

// Unimport destroys an import mapping after waiting for all pending
// messages using it to be delivered (paper Section 2.1).
func (d *Daemon) Unimport(proc *kernel.Process, rec *ImportRec) error {
	proc.Compute(LocalIPCCost)
	if rec.released {
		return ErrReleased
	}
	d.NIC.Quiesce(proc.P)
	d.Mesh.WaitDrained(proc.P, mesh.NodeID(d.NodeID), mesh.NodeID(rec.Exporter))
	d.NIC.FreeOPT(rec.OPTBase, rec.Pages)
	rec.released = true
	d.removeImport(rec)
	port := d.ephemeralPort()
	defer port.Close()
	// Best-effort: if the exporter died, nobody is left to care about the
	// reference count.
	port.Call(proc.P, ether.Addr{Node: rec.Exporter, Port: Port}, 16, releaseReq{ExportID: rec.ExportID, From: d.NodeID, Nonce: rec.nonce}, d.rpcDeadline)
	return nil
}

// Unexport revokes an export: every importing node's daemon is asked to
// drain and drop its mappings, then the local receive path quiesces and the
// IPT entries are disabled.
func (d *Daemon) Unexport(proc *kernel.Process, rec *ExportRec) error {
	proc.Compute(LocalIPCCost)
	if rec.revoked {
		return ErrRevoked
	}
	rec.revoked = true
	// Notify importing daemons in node order: revocation traffic and the
	// resulting quiesce/drain sequences must not follow map iteration
	// order, or the virtual-time run stops being repeatable.
	nodes := make([]int, 0, len(rec.importers))
	for ref := range rec.importers {
		nodes = append(nodes, ref.node)
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	for _, node := range nodes {
		if node == d.NodeID {
			d.handleRevoke(proc, revokeReq{Exporter: d.NodeID, ExportID: rec.ID})
			continue
		}
		port := d.ephemeralPort()
		// Best-effort: a dead importer's mappings are already gone.
		port.Call(proc.P, ether.Addr{Node: node, Port: Port}, 16, revokeReq{Exporter: d.NodeID, ExportID: rec.ID}, d.rpcDeadline)
		port.Close()
	}
	d.NIC.QuiesceIncoming(proc.P)
	for i, f := range rec.Frames {
		d.NIC.SetIPT(f, nic.IPTEntry{})
		rec.Owner.SetFlags(kernel.PageOf(rec.Base)+kernel.VPN(i), 0)
	}
	delete(d.exports, rec.ID)
	if rec.Name != "" {
		delete(d.byName, rec.Name)
	}
	return nil
}

// BindAU configures the OPT entries backing an import for automatic update
// from localVA: each local frame is bound to the corresponding destination
// page, combining configured as requested, and the local pages are marked
// write-through (or uncached) so stores reach the bus. combine turns on
// write-combining together with its flush timer.
func (d *Daemon) BindAU(proc *kernel.Process, rec *ImportRec, localVA kernel.VA, pages int, dstPage int, combine, uncached bool) error {
	proc.Compute(LocalIPCCost)
	// Re-validate after the charged syscall time: Compute yields, and a
	// revocation arriving in that window frees the OPT entries this bind is
	// about to program.
	if rec.released {
		return fmt.Errorf("bindau: import %q revoked", rec.Name)
	}
	if localVA%hw.Page != 0 {
		return fmt.Errorf("bindau: local buffer %#x not page-aligned", localVA)
	}
	if dstPage+pages > rec.Pages {
		return fmt.Errorf("bindau: binding exceeds import (%d+%d > %d pages)", dstPage, pages, rec.Pages)
	}
	for i := 0; i < pages; i++ {
		vpn := kernel.PageOf(localVA) + kernel.VPN(i)
		pte, ok := proc.PTEOf(localVA + kernel.VA(i*hw.Page))
		if !ok {
			return fmt.Errorf("bindau: page %#x not mapped", localVA+kernel.VA(i*hw.Page))
		}
		idx := rec.OPTBase + dstPage + i
		e := d.NIC.GetOPT(idx)
		e.Combine = combine
		e.CombineTimer = combine
		d.NIC.SetOPT(idx, e)
		d.NIC.BindAU(pte.Frame, idx)
		// Preserve the pinned bit: SVM pages are both exported (pinned
		// receive buffers) and AU-bound (the local copy streams to the
		// home), so the bind must not unpin them.
		flags := pte.Flags&kernel.FlagPinned | kernel.FlagWriteThrough
		if uncached {
			flags = pte.Flags&kernel.FlagPinned | kernel.FlagUncached
		}
		proc.SetFlags(vpn, flags)
		proc.SetAUPage(vpn, true)
	}
	return nil
}

// UnbindAU removes automatic-update bindings created by BindAU.
func (d *Daemon) UnbindAU(proc *kernel.Process, rec *ImportRec, localVA kernel.VA, pages int) {
	proc.Compute(LocalIPCCost)
	for i := 0; i < pages; i++ {
		vpn := kernel.PageOf(localVA) + kernel.VPN(i)
		var keep kernel.PTEFlags
		if pte, ok := proc.PTEOf(localVA + kernel.VA(i*hw.Page)); ok {
			d.NIC.UnbindAU(pte.Frame)
			keep = pte.Flags & kernel.FlagPinned
		}
		proc.SetAUPage(vpn, false)
		proc.SetFlags(vpn, keep)
	}
}

func (d *Daemon) ephemeralPort() *ether.Port {
	d.nextEphem++
	return d.Ether.Bind(ether.Addr{Node: d.NodeID, Port: d.nextEphem})
}

// Exports returns the count of live exports (for tests).
func (d *Daemon) Exports() int { return len(d.exports) }

// Imports returns the count of live imports (for tests).
func (d *Daemon) Imports() int { return len(d.imports) }
