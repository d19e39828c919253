// Package nx is a user-level compatibility library for the Intel NX/2
// multicomputer message-passing interface, built on SHRIMP virtual
// memory-mapped communication (paper Section 4.1).
//
// Protocols, following the paper:
//
//   - Small messages use a one-copy protocol through fixed-size packet
//     buffers with sender-managed credits: the sender writes payload and
//     then a descriptor into a packet buffer on the receiver; the receiver
//     polls descriptor size words, consumes messages (possibly out of order
//     by type), and returns per-buffer credits.
//   - Large messages use a zero-copy protocol: the sender sends a "scout"
//     descriptor and immediately begins copying the data into a local
//     backup buffer; the receive call, upon finding the scout, replies with
//     the buffer ID of the user's receive region; the sender then transfers
//     the data directly into the receiver's user memory and sets a flag.
//     The backup copy is off the critical path: it only exists so the
//     sending program can be resumed early.
//   - Control information (credits, replies, done flags, doorbells) always
//     travels by automatic update; message data travels by automatic or
//     deliberate update depending on the protocol variant.
//
// The Proto* constants force a specific variant for benchmarking (the five
// curves of Figure 4); ProtoDefault picks the paper's adaptive protocol.
package nx

import (
	"fmt"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
	"shrimp/internal/vmmc"
)

// Proto selects a protocol variant (Figure 4's curves).
type Proto int

const (
	// ProtoDefault uses the adaptive protocol: one-copy (AU) for small
	// messages, zero-copy (DU) for large ones.
	ProtoDefault Proto = iota
	// ProtoAU1 forces the large-message protocol with the final transfer
	// performed by an automatic-update binding to the receiver's user
	// buffer: one copy (the sender's AU store stream), none on the
	// receiver.
	ProtoAU1
	// ProtoAU2 forces the one-copy-per-side path: sender marshals data
	// into its AU-bound shadow of the packet buffer (that copy is the
	// send); receiver copies out.
	ProtoAU2
	// ProtoDU0 forces the zero-copy scout protocol with deliberate
	// update for all sizes.
	ProtoDU0
	// ProtoDU1 forces packet-buffer delivery with the payload sent by
	// deliberate update directly from user memory (no sender copy; the
	// descriptor goes separately): receiver copies out.
	ProtoDU1
	// ProtoDU2 forces packet-buffer delivery with the sender copying
	// header and payload into a staging area and sending both with a
	// single deliberate update; receiver copies out.
	ProtoDU2
)

func (p Proto) String() string {
	switch p {
	case ProtoAU1:
		return "AU-1copy"
	case ProtoAU2:
		return "AU-2copy"
	case ProtoDU0:
		return "DU-0copy"
	case ProtoDU1:
		return "DU-1copy"
	case ProtoDU2:
		return "DU-2copy"
	default:
		return "default"
	}
}

// TypeAny is the receive type selector matching any message type.
const TypeAny = -1

// ID is an asynchronous operation handle (isend/irecv).
type ID int

// Config tunes an NX instance.
type Config struct {
	// Force pins every send to one protocol variant; ProtoDefault
	// selects adaptively by size.
	Force Proto
	// Lazy defers per-peer connection setup until first use. The eager
	// default mirrors real NX initialization but costs O(N) region pages
	// per process — O(N²) machine-wide — which is what blocks 1024-node
	// worlds. With Lazy set, a connection is built on the first Csend or
	// explicit Connect; both sides export their own half before importing
	// the peer's, so symmetric lazy connects always converge. Receives
	// only match peers a connection already exists for, so a process that
	// receives first from a new peer must Connect (the collective layer
	// does this at its known receive-before-send points).
	Lazy bool
}

// NX is one process's attachment to the NX library.
type NX struct {
	ep   *vmmc.Endpoint
	node int
	n    int
	cfg  Config

	conns map[int]*conn
	// connList holds the same connections in ascending peer order. Every
	// scan over all connections (matching, credit flush) walks this list:
	// iterating the map would randomize the scan order and with it the
	// per-word costs charged, breaking run-to-run determinism.
	connList []*conn
	// arrived holds one cond, broadcast whenever a write lands in any
	// page of any incoming region (see landed): what the blocking library
	// calls wait on. A one-element array, so a wait passes arrived[:]
	// without allocating.
	arrived [1]*sim.Cond

	// Last-received message info (infocount and friends).
	lastCount, lastType, lastNode, lastPid int

	// Zero-copy sends whose data transfer is still pending, in the order
	// they parked: a blocking send's once its backup copy completed, an
	// Isend's as soon as its scout is out.
	pendingZC []*zcSend

	// Receiver-side export cache for user buffers handed to the
	// zero-copy protocol, keyed by page range.
	zcExports    map[[2]kernel.VA]*zcExport
	nextExportID uint32

	// Sender-side import (and AU shadow) cache for peers' user-buffer
	// exports.
	zcImports map[zcImportKey]*zcImport

	// Posted asynchronous receives.
	recvs   map[ID]*postedRecv
	sends   map[ID]*zcSend
	nextID  ID
	scratch kernel.VA // word-aligned scratch for doorbells etc.

	// loopback holds self-addressed messages.
	loopback []*selfMsg

	// collSeq numbers collective operations (all processes perform
	// collectives in the same global order).
	collSeq uint32

	// comb, when non-nil, is the backplane with router-level combining
	// enabled: Gsync/Gisum/Gdsum ride the in-network reduction tree
	// instead of software recursive doubling. Only set when this NX world
	// spans the whole mesh (the combining tree needs every router's
	// contribution).
	comb *mesh.Network
	// combRes pools the combining results, one per nesting level in use
	// (combDepth); see combReduce.
	combRes   []*combResult
	combDepth int

	// zcFree pools the zcSend records blocking sends retire (see
	// zcSendBlocking).
	zcFree []*zcSend

	// Stats for the paper's Section 6 claims: data transfers are far more
	// common than control transfers, and interrupts are rare.
	Stats struct {
		DataSends     int64 // packet-buffer and zero-copy data transfers
		CreditFlushes int64 // control transfers carrying credits
		Doorbells     int64 // buffer-request notifications (interrupting)
	}

	// tc/track: the node's observability collector (nil-safe) and this
	// library's precomputed track name ("node3/nx").
	tc    *trace.Collector
	track string
}

type conn struct {
	peer int

	// out is the imported remote region this process writes (me->peer);
	// outShadow is its local AU-bound shadow.
	out       *vmmc.Import
	outShadow kernel.VA

	// in is the locally-exported region the peer writes (peer->me).
	in    kernel.VA
	inExp *vmmc.Export
	// maybe has bit i set when a write may have made packet buffer i's
	// size word nonzero. Invariant: bit clear => size word zero, so the
	// scans (find, findChunk) visit only the set bits. landed sets bits;
	// a scan that reads a zero size word clears its bit, as does release.
	maybe uint32
	// arrived is broadcast whenever a write lands in any page of in: what
	// waitChunk waits on (the same one-element form as NX.arrived).
	arrived [1]*sim.Cond

	// staging is a word-aligned marshal area for DU sends.
	staging kernel.VA

	// backup is the zero-copy safety-copy buffer (grown on demand).
	backup      kernel.VA
	backupCap   int
	sendSeq     uint32
	freeBufs    []int // packet buffers we may still fill
	creditsSeen int   // credits consumed from the peer's ring

	// Receiver-side state for the peer's messages.
	creditsGiven int   // credits we have stamped into our outgoing ring
	pendingCred  []int // consumed-but-uncredited buffer indices (lazy)

	zcSendSeq uint32 // our next zero-copy sequence toward peer
	zcOut     int    // outstanding zero-copy sends
}

type zcExport struct {
	exp  *vmmc.Export
	id   uint32
	base kernel.VA
}

type zcImportKey struct {
	node int
	id   uint32
}

type zcImport struct {
	imp    *vmmc.Import
	shadow kernel.VA // AU-bound shadow, mapped lazily for ProtoAU1
}

type selfMsg struct {
	typ  int
	data []byte
	pid  int
}

// New attaches a process to NX on a cluster. node is this process's logical
// node number; nnodes the machine size. Unless cfg.Lazy is set, connections
// to every peer are established eagerly, as NX does at initialization.
func New(c *cluster.Cluster, p *kernel.Process, node, nnodes int, cfg Config) *NX {
	nx := &NX{
		ep:        vmmc.Attach(p, c.Node(node).Daemon),
		node:      node,
		n:         nnodes,
		cfg:       cfg,
		conns:     make(map[int]*conn),
		zcExports: make(map[[2]kernel.VA]*zcExport),
		zcImports: make(map[zcImportKey]*zcImport),
		recvs:     make(map[ID]*postedRecv),
		sends:     make(map[ID]*zcSend),
		tc:        p.M.Trace,
		track:     p.M.Track("nx"),
	}
	nx.arrived[0] = sim.NewCond(p.M.Eng)
	nx.scratch = p.Alloc(64, hw.WordSize)
	if c.Mesh.CombiningEnabled() && nnodes == c.Mesh.Nodes() {
		nx.comb = c.Mesh
	}
	if cfg.Lazy {
		return nx
	}

	// Export incoming regions first so peers can import them.
	for peer := 0; peer < nnodes; peer++ {
		if peer != node {
			nx.exportHalf(peer)
		}
	}
	// Import each peer's matching region, retrying until its export
	// appears (peers initialize concurrently).
	for peer := 0; peer < nnodes; peer++ {
		if peer != node {
			nx.importHalf(nx.conns[peer])
		}
	}
	return nx
}

// exportHalf builds this side's half of the connection to peer: the locally
// exported incoming region (peer writes it), packet-buffer credits, and the
// DU staging area. The connection enters conns/connList immediately so
// receive matching sees it, but is not sendable until importHalf runs.
func (nx *NX) exportHalf(peer int) *conn {
	p := nx.proc()
	cn := &conn{peer: peer}
	cn.in = p.MapPages(regionPages, 0)
	cn.arrived[0] = sim.NewCond(p.M.Eng)
	for pg := 0; pg < regionPages; pg++ {
		base := pg * hw.Page
		p.ObserveWrites(cn.in+kernel.VA(base), func(off, n int) { nx.landed(cn, base+off, n) })
	}
	exp, err := nx.ep.Export(cn.in, regionPages, vmmc.ExportOpts{
		Name:    regionName(peer, nx.node),
		Handler: func(vmmc.Notification) { nx.onDoorbell(cn) },
	})
	if err != nil {
		//lint:allow transitive-panic init-time resource exhaustion; NX initialization aborts the process, as on the real machine
		panic(fmt.Sprintf("nx init: %v", err))
	}
	cn.inExp = exp
	for i := 0; i < NumPkt; i++ {
		cn.freeBufs = append(cn.freeBufs, i)
	}
	cn.staging = p.Alloc(hdrSize+PayloadMax+8, hw.WordSize)
	nx.conns[peer] = cn
	// Keep connList in ascending peer order: all-connection scans walk it
	// in list order, so insertion order must not leak into costs.
	at := len(nx.connList)
	for i, other := range nx.connList {
		if other.peer > peer {
			at = i
			break
		}
	}
	nx.connList = append(nx.connList, nil)
	copy(nx.connList[at+1:], nx.connList[at:])
	nx.connList[at] = cn
	return cn
}

// landed is the write observer of cn's incoming region: a write covered
// region bytes [off, off+n). It sets the maybe bit of every packet buffer
// whose size word the write touched and wakes the waits on the region.
func (nx *NX) landed(cn *conn, off, n int) {
	// Buffer i's size word is region bytes [pktOff(i), pktOff(i)+4); lo
	// and hi bound the write relative to pktOff(0).
	if lo, hi := off-pktBase, off+n-pktBase; hi > 0 {
		first := 0
		if lo >= 4 {
			first = (lo-4)/PktSize + 1
		}
		for i := first; i <= min((hi-1)/PktSize, NumPkt-1); i++ {
			cn.maybe |= 1 << i
		}
	}
	nx.arrived[0].Broadcast()
	cn.arrived[0].Broadcast()
}

// importHalf completes the connection: import the peer's matching export
// (retrying while the peer initializes) and bind the AU shadow over it.
// The rendezvous retry backs off exponentially with deterministic per-pair
// jitter: a big world's boot storm has hundreds of these loops sharing one
// 10 Mb/s control Ethernet, and a fixed hot retry period congests it into
// collapse.
func (nx *NX) importHalf(cn *conn) {
	p := nx.proc()
	// The backoff ceiling scales with the world: N-1 importers may be
	// waiting on one exporter that serves them sequentially (a Gather
	// root), so the steady-state retry load on the shared Ethernet — and
	// the total patience — must both grow with N. At 64 nodes the cap is
	// the classic 51.2ms; at 1024 it is 16x that, and the 200-try budget
	// stretches from ~10s to ~2.5min of virtual time.
	ceil := 200 * time.Microsecond << 8
	if nx.n > 64 {
		ceil *= time.Duration(nx.n / 64)
	}
	for try := 0; ; try++ {
		imp, err := nx.ep.Import(cn.peer, regionName(nx.node, cn.peer))
		if err == nil {
			cn.out = imp
			break
		}
		if try > 200 {
			//lint:allow transitive-panic init-time rendezvous timeout; a peer that never boots is fatal, as on the real machine
			panic(fmt.Sprintf("nx init: peer %d never exported: %v", cn.peer, err))
		}
		wait := 200 * time.Microsecond
		if try < 8 {
			wait <<= uint(try)
		} else {
			wait <<= 8
		}
		if wait > ceil {
			wait = ceil
		} else if try >= 8 && ceil > wait {
			// Past the doubling ramp, climb linearly toward the ceiling so
			// a big world's importers thin out their retry traffic further
			// the longer they have waited.
			wait += (ceil - wait) * time.Duration(min(try-8, 64)) / 64
		}
		// Decorrelate concurrent importers without randomness.
		wait += time.Duration((nx.node*131+cn.peer*31+try*17)%251) * time.Microsecond
		p.P.Sleep(wait)
	}
	cn.outShadow = p.MapPages(regionPages, 0)
	if _, err := nx.ep.BindAU(cn.outShadow, cn.out, 0, regionPages, vmmc.AUOpts{Combine: true}); err != nil {
		//lint:allow transitive-panic init-time resource exhaustion; NX initialization aborts the process, as on the real machine
		panic(fmt.Sprintf("nx init: bind: %v", err))
	}
}

// Connect ensures the connection to peer exists, building it on demand in
// lazy mode. Own half is exported before the peer's is imported, so two
// processes lazily connecting to each other always converge. Blocks (in
// virtual time) until the peer has exported its half.
func (nx *NX) Connect(peer int) {
	if peer == nx.node || nx.conns[peer] != nil {
		return
	}
	nx.importHalf(nx.exportHalf(peer))
}

// conn returns the connection to node, building it on demand in lazy mode.
func (nx *NX) conn(node int) *conn {
	cn := nx.conns[node]
	if cn == nil && nx.cfg.Lazy {
		nx.Connect(node)
		cn = nx.conns[node]
	}
	return cn
}

// Mynode returns this process's node number.
func (nx *NX) Mynode() int { return nx.node }

// Numnodes returns the machine size.
func (nx *NX) Numnodes() int { return nx.n }

// Infocount returns the byte count of the last received message.
func (nx *NX) Infocount() int { return nx.lastCount }

// Infotype returns the type of the last received message.
func (nx *NX) Infotype() int { return nx.lastType }

// Infonode returns the sending node of the last received message.
func (nx *NX) Infonode() int { return nx.lastNode }

// Infopid returns the sending pid of the last received message.
func (nx *NX) Infopid() int { return nx.lastPid }

// proc returns the owning kernel process.
func (nx *NX) proc() *kernel.Process { return nx.ep.Proc }

// --- Region access helpers ---

// shadowWrite writes into the outgoing region via the AU-bound shadow: the
// store stream is the transfer (control information always goes this way).
func (cn *conn) shadowWrite(p *kernel.Process, off int, b []byte) {
	p.WriteBytes(cn.outShadow+kernel.VA(off), b)
}

func (cn *conn) shadowWriteWord(p *kernel.Process, off int, v uint32) {
	p.WriteWord(cn.outShadow+kernel.VA(off), v)
}

// inWord reads a word of the locally-exported incoming region (plain local
// memory; the peer's NIC DMAs into it).
func (cn *conn) inWord(p *kernel.Process, off int) uint32 {
	return p.PeekWord(cn.in + kernel.VA(off))
}

// onDoorbell services a notification from the peer: flush any lazily-held
// credits so a blocked sender can continue, and advance any of our own
// pending zero-copy transfers whose replies have arrived. Runs in this
// process's context via the notification (signal) machinery, so protocol
// state progresses even when the application is computing between library
// calls.
func (nx *NX) onDoorbell(cn *conn) {
	nx.flushCredits(cn)
	nx.servicePending()
}

// Drain completes all outstanding protocol work: pending zero-copy
// transfers are pushed to completion and lazy credits are returned. NX
// applications terminate through the runtime's exit protocol, which drains
// exactly like this; tests and examples call it before a process exits.
func (nx *NX) Drain() {
	p := nx.proc()
	p.Compute(hw.CallCost)
	for len(nx.pendingZC) > 0 {
		nx.servicePending()
		if len(nx.pendingZC) == 0 {
			break
		}
		p.WaitPred(nil, nx.arrived[:], 0, func() bool { return nx.pendingActionable() })
	}
	nx.flushAllCredits()
}

// flushCredits stamps all consumed-but-uncredited buffers into the credit
// ring (via automatic update, as control traffic). Each credit's buffer and
// ring slot are claimed before its store, which sleeps: a doorbell that
// interrupts the store runs flushCredits again, and that nested flush must
// stamp only the credits not yet claimed, in the next slots.
func (nx *NX) flushCredits(cn *conn) {
	p := nx.proc()
	if len(cn.pendingCred) > 0 {
		nx.Stats.CreditFlushes++
		nx.tc.Count(nx.track, "credit.flush", 1)
	}
	for len(cn.pendingCred) > 0 {
		bufIdx := cn.pendingCred[0]
		cn.pendingCred = cn.pendingCred[:copy(cn.pendingCred, cn.pendingCred[1:])]
		k := cn.creditsGiven
		cn.creditsGiven++
		cn.shadowWriteWord(p, creditOff(k), uint32(k+1)<<8|uint32(bufIdx))
	}
}

// acquireBuf takes a free packet buffer for sending to cn's peer, blocking
// on the credit ring when none are available. When it must block it rings
// the peer's doorbell — a notifying transfer that interrupts a receiver
// that is not currently in library code (paper Section 6, "Interrupts").
func (nx *NX) acquireBuf(cn *conn) int {
	p := nx.proc()
	rang := false
	var wait *trace.OpenSpan
	for {
		if nx.pollCredits(cn) && len(cn.freeBufs) > 0 {
			break
		}
		if len(cn.freeBufs) > 0 {
			break
		}
		if !rang {
			rang = true
			nx.Stats.Doorbells++
			nx.tc.Count(nx.track, "doorbell", 1)
			wait = nx.tc.Begin(nx.track, "csend.credit-wait")
			p.WriteWord(nx.scratch, 1)
			if err := nx.ep.SendNotify(cn.out, doorbellBase, nx.scratch, 4); err != nil {
				//lint:allow transitive-panic doorbell rings an import that was valid at connect; failure means the peer died
				panic(fmt.Sprintf("nx: doorbell: %v", err))
			}
		}
		slot := cn.in + kernel.VA(creditOff(cn.creditsSeen))
		want := uint32(cn.creditsSeen+1) << 8
		p.WaitWord(slot, func(v uint32) bool { return v&^0xff == want })
	}
	wait.End()
	// Pop the oldest free buffer, shifting the rest down in place so the
	// queue keeps its backing array (re-slicing from the front would
	// creep through memory, reallocating every few messages).
	buf := cn.freeBufs[0]
	cn.freeBufs = cn.freeBufs[:copy(cn.freeBufs, cn.freeBufs[1:])]
	return buf
}

// pollCredits consumes any stamped credits; reports whether it found any.
func (nx *NX) pollCredits(cn *conn) bool {
	p := nx.proc()
	found := false
	for {
		v := cn.inWord(p, creditOff(cn.creditsSeen))
		if v>>8 != uint32(cn.creditsSeen+1) {
			return found
		}
		cn.freeBufs = append(cn.freeBufs, int(v&0xff))
		cn.creditsSeen++
		found = true
	}
}
