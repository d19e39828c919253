package app

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"shrimp/internal/kernel"
	"shrimp/internal/retry"
	"shrimp/internal/sim"
	"shrimp/internal/srpc"
	"shrimp/internal/vmmc"
)

// replChunk caps one replication call's image. Smaller than the batch
// image budget on purpose: a synchronously awaited write group never sits
// behind more than one chunk of a snapshot stream on the shared proxy.
const replChunk = 4096

// replBackoff paces a replication proxy after failed calls: exponential
// with heavy jitter, from a quarter of the default replication deadline up
// to a few deadlines. The budget is effectively unbounded — a proxy never
// abandons replication, it just settles at the Max cadence — and any
// success rewinds the schedule to Base.
var replBackoff = retry.Policy{
	Base:   500 * time.Microsecond,
	Max:    8 * time.Millisecond,
	Factor: 2,
	Jitter: 0.5,
	Budget: 1 << 30,
}

// shardState is one shard's serving state on one node. Admission control
// is a fluid backlog: backlogUntil is the virtual instant the shard's
// queued work drains; its distance from now, divided by the per-op
// service time, is the queue depth the bound applies to. wseq is the
// node's write sequence for the shard while it serves as primary: each
// put's store version is epoch<<32 | wseq, so versions from a newer
// regime compare above everything an older one minted.
type shardState struct {
	store        *Store
	backlogUntil sim.Time
	wseq         uint32
}

// serverNode is one node's serving state: every shard's local copy (it
// may hold any shard as primary or follower over its lifetime) and the
// outbound replication proxies it owns. Processes: "app-srv" owns the
// client-facing port and every accepted client binding; "app-repl" owns
// the replication port and never initiates calls; one "app-out" proxy per
// peer owns the outbound replication binding to that peer — so the slow
// conventional-network rendezvous (warmup, or a rebind after a rejoin)
// never stalls client serving, and two primaries replicating into each
// other cannot deadlock.
type serverNode struct {
	app    *App
	node   int
	shards []*shardState
	// poke wakes the srv process for non-binding work (a resync coming
	// due after a rejoin).
	poke *sim.Cond
	// lns are the node's live listeners. A crash kills the serving
	// processes but leaves their Ethernet addresses bound; Rejoin closes
	// the corpse's listeners so the fresh incarnation can claim them.
	lns []*srpc.Listener
	// out[t] is the replication proxy to node t (nil at the self index).
	out []*outProxy
	// session[s] marks a snapshot resync in flight for shard s;
	// pendingRepl[s] counts its queued-but-unacked proxy entries. When the
	// last drains, the follower has every write and Synced flips.
	session     []bool
	pendingRepl []int

	// Serving scratch, reused from call to call so a steady-state batch
	// allocates nothing. The srv and repl processes share this node, so
	// each owns its own: batch belongs to the srv process (serveBatch),
	// repl to the repl process (serveRepl).
	batch batchScratch
	repl  replScratch
}

// batchScratch is serveBatch's per-batch state: the argument image, the
// decoded ops, the per-op verdicts and the reply image.
type batchScratch struct {
	args       []byte
	ops        []wireOp
	statuses   []uint32
	vals       [][]byte
	waitFor    []*outEntry
	waitTarget []int
	reply      []byte
}

// replScratch is serveRepl's argument image and decoded records.
type replScratch struct {
	args []byte
	recs []replRec
}

// zeroed returns s resized to n zero elements, reusing its storage when
// it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// startNode allocates a node's serving state and spawns its processes.
func (a *App) startNode(i int) {
	n := len(a.nodes)
	sn := &serverNode{
		app:         a,
		node:        i,
		shards:      make([]*shardState, len(a.Map.Shards)),
		poke:        sim.NewCond(a.Cl.Eng),
		out:         make([]*outProxy, n),
		session:     make([]bool, len(a.Map.Shards)),
		pendingRepl: make([]int, len(a.Map.Shards)),
	}
	for s := range sn.shards {
		sn.shards[s] = &shardState{store: NewStore()}
	}
	a.nodes[i] = sn
	a.Cl.Spawn(i, fmt.Sprintf("app-srv-%d", i), sn.srvBody)
	a.Cl.Spawn(i, fmt.Sprintf("app-repl-%d", i), sn.replBody)
	for t := 0; t < n; t++ {
		if t == i {
			continue
		}
		px := &outProxy{sn: sn, target: t, cond: sim.NewCond(a.Cl.Eng),
			bo: retry.New(replBackoff, retry.Seed(uint64(i), uint64(t)))}
		sn.out[t] = px
		a.Cl.Spawn(i, fmt.Sprintf("app-out-%d-%d", i, t), px.body)
	}
}

// serveLoop is the shared multiplexed server: accept every pending
// binding request, serve every binding with a ready call (in accept
// order), run due side work, then park until a flag write, a rendezvous
// datagram, or a poke. One process serves an open-ended client set.
func (sn *serverNode) serveLoop(p *kernel.Process, port int,
	serve func(*srpc.Binding), side func() bool) {
	p.P.MarkService()
	a := sn.app
	ep := vmmc.Attach(p, a.Cl.Node(sn.node).Daemon)
	ln := srpc.Listen(ep, a.Cl.Ether, sn.node, port)
	sn.lns = append(sn.lns, ln)
	a.portUp(sn.node)
	var bindings []*srpc.Binding
	var vas []kernel.VA
	for {
		for ln.Port().Pending() > 0 {
			b, err := ln.Accept()
			if err != nil {
				// The requester died between asking and wiring; its
				// residue is not this server's problem.
				a.Rec.Count(&a.Rec.AcceptErrs, "accept.err", 1)
				continue
			}
			bindings = append(bindings, b)
		}
		for {
			progress := false
			for _, b := range bindings {
				if b.CallReady() {
					serve(b)
					progress = true
				}
			}
			if side != nil && side() {
				progress = true
			}
			if !progress {
				break
			}
		}
		vas = vas[:0]
		for _, b := range bindings {
			vas = append(vas, b.FlagVA())
		}
		p.WaitPred(vas, []*sim.Cond{ln.Port().Cond(), sn.poke}, 0, func() bool {
			if ln.Port().Pending() > 0 {
				return true
			}
			for _, b := range bindings {
				if b.CallReady() {
					return true
				}
			}
			return side != nil && sn.resyncDue()
		})
	}
}

// srvBody runs the client-facing batch server; its side work is starting
// snapshot resync sessions into rejoined followers.
func (sn *serverNode) srvBody(p *kernel.Process) {
	sn.serveLoop(p, Port,
		func(b *srpc.Binding) { sn.serveBatch(p, b) },
		sn.startResyncs)
}

// replBody runs the replication server: it applies pushed writes and
// never initiates calls.
func (sn *serverNode) replBody(p *kernel.Process) {
	sn.serveLoop(p, ReplPort,
		func(b *srpc.Binding) { sn.serveRepl(b) }, nil)
}

// serveBatch executes one client batch: route-check each op against the
// shard map, admit or shed against the shard's backlog, apply, model the
// service time, synchronously replicate admitted writes, and reply with
// per-op statuses.
func (sn *serverNode) serveBatch(p *kernel.Process, b *srpc.Binding) {
	a := sn.app
	sc := &sn.batch
	proc, alen := b.NextCall()
	sc.args = b.ReadArgs(sc.args, alen)
	if proc != ProcBatch {
		b.Finish(proc, 0)
		return
	}
	var err error
	if sc.ops, err = decodeBatch(sc.args, sc.ops); err != nil {
		// A malformed batch gets an empty reply; the client counts the
		// whole batch as a protocol error.
		b.Finish(ProcBatch, 0)
		return
	}
	ops := sc.ops

	eng := a.Cl.Eng
	now := eng.Now()
	sc.statuses = zeroed(sc.statuses, len(ops))
	sc.vals = zeroed(sc.vals, len(ops))
	// waitFor maps an op to the synchronous replication group its ack
	// depends on.
	sc.waitFor = zeroed(sc.waitFor, len(ops))
	sc.waitTarget = zeroed(sc.waitTarget, len(ops))
	statuses, vals, waitFor, waitTarget := sc.statuses, sc.vals, sc.waitFor, sc.waitTarget
	for i := range waitTarget {
		waitTarget[i] = -1
	}
	maxDone := now
	groups := map[int][]replRec{}
	sess := map[[2]int][]replRec{}
	for i := range ops {
		op := &ops[i]
		if op.Shard >= len(a.Map.Shards) {
			statuses[i] = StatusBadRequest
			continue
		}
		in := a.Map.Shards[op.Shard]
		if in.Primary != sn.node {
			statuses[i] = StatusWrongNode
			a.Rec.Count(&a.Rec.WrongNode, "wrongnode", 1)
			continue
		}
		// The fence: an op minted under an older regime is rejected so the
		// client re-reads the map before retrying.
		if op.Epoch != in.Epoch {
			statuses[i] = StatusStaleEpoch
			a.Rec.Count(&a.Rec.EpochRejected, "epoch.rejected", 1)
			continue
		}
		ss := sn.shards[op.Shard]
		var depth int64
		if ss.backlogUntil > now {
			depth = int64(ss.backlogUntil.Sub(now) / a.Cfg.ServiceTime)
		}
		a.Rec.Depth(sn.node, op.Shard, depth)
		if depth >= int64(a.Cfg.QueueBound) {
			statuses[i] = StatusShed
			a.Rec.Count(&a.Rec.Shed, "shed", 1)
			continue
		}
		if ss.backlogUntil < now {
			ss.backlogUntil = now
		}
		ss.backlogUntil = ss.backlogUntil.Add(a.Cfg.ServiceTime)
		if ss.backlogUntil > maxDone {
			maxDone = ss.backlogUntil
		}
		a.Rec.Count(&a.Rec.Admitted, "admit", 1)
		switch op.Kind {
		case OpPut:
			val := append([]byte(nil), op.Val...)
			ss.wseq++
			ver := uint64(in.Epoch)<<32 | uint64(ss.wseq)
			ss.store.PutVer(op.Key, val, ver)
			statuses[i] = StatusOK
			rec := replRec{Shard: op.Shard, Key: op.Key, Epoch: in.Epoch, Ver: ver, Val: val}
			if in.Replica >= 0 {
				if in.Synced {
					// Synced follower: replicate synchronously before
					// the ack.
					groups[in.Replica] = append(groups[in.Replica], rec)
					waitTarget[i] = in.Replica
				} else if sn.session[op.Shard] {
					// Mid-resync: the write rides the same per-target
					// FIFO as the snapshot — behind the chunk holding its
					// old value, so the follower converges in key order —
					// but fire-and-forget: the ack stays degraded-mode
					// (the primary's copy is the promise) and the client
					// never waits behind the stream.
					k := [2]int{in.Replica, op.Shard}
					sess[k] = append(sess[k], rec)
				}
				// Neither synced nor mid-resync: degraded; the snapshot
				// built when the session starts will carry this write.
			}
		default:
			if v, ok := ss.store.Get(op.Key); ok {
				statuses[i] = StatusOK
				vals[i] = v
			} else {
				statuses[i] = StatusNotFound
				a.Rec.Count(&a.Rec.NotFound, "notfound", 1)
			}
		}
	}

	// Model the admitted work draining before the reply.
	if now = eng.Now(); maxDone > now {
		p.P.Sleep(maxDone.Sub(now))
	}

	// Queue session writes (fire-and-forget), then synchronous groups, and
	// wait for the synchronous ones — per follower, before the ack.
	if len(sess) > 0 {
		skeys := make([][2]int, 0, len(sess))
		for k := range sess {
			skeys = append(skeys, k)
		}
		sort.Slice(skeys, func(i, j int) bool {
			if skeys[i][0] != skeys[j][0] {
				return skeys[i][0] < skeys[j][0]
			}
			return skeys[i][1] < skeys[j][1]
		})
		for _, k := range skeys {
			sn.pendingRepl[k[1]]++
			sn.out[k[0]].push(&outEntry{shard: k[1], recs: sess[k]}, false)
		}
	}
	targets := make([]int, 0, len(groups))
	for t := range groups {
		targets = append(targets, t)
	}
	sort.Ints(targets)
	waits := make([]*outEntry, 0, len(targets))
	byTarget := map[int]*outEntry{}
	for _, t := range targets {
		e := &outEntry{shard: -1, recs: groups[t], wait: true}
		sn.out[t].push(e, true)
		waits = append(waits, e)
		byTarget[t] = e
	}
	for i := range ops {
		if waitTarget[i] >= 0 {
			waitFor[i] = byTarget[waitTarget[i]]
		}
	}
	for i, e := range waits {
		px := sn.out[targets[i]]
		for !e.done {
			px.cond.Wait(p.P)
		}
	}

	// Fencing re-check before the ack: while the batch slept on its
	// service time and synchronous replication, the map may have moved. An
	// admitted op (the only ones still StatusOK or StatusNotFound) of a
	// regime that no longer exists must not be acknowledged — the new
	// primary owns history now. A put whose replication group failed
	// while the map STILL names a synced follower means the down-report
	// was quorum-vetoed: this node is the one cut off, and acking from the
	// minority side is exactly the split-brain the fence exists to
	// prevent. (A failed group on a shard the map has since degraded keeps
	// its ack: the quorum agreed the follower is gone and the primary's
	// copy is the promise.)
	for i := range ops {
		op := &ops[i]
		if statuses[i] != StatusOK && statuses[i] != StatusNotFound {
			continue
		}
		in := a.Map.Shards[op.Shard]
		if in.Primary != sn.node || in.Epoch != op.Epoch {
			statuses[i] = StatusStaleEpoch
			vals[i] = nil
			a.Rec.Count(&a.Rec.EpochRejected, "epoch.rejected", 1)
			continue
		}
		if e := waitFor[i]; e != nil && e.failed && in.Replica >= 0 && in.Synced {
			statuses[i] = StatusUnavailable
			a.Rec.Count(&a.Rec.Unavail, "unavail", 1)
		}
	}

	reply := binary.LittleEndian.AppendUint32(sc.reply[:0], uint32(len(ops)))
	for i := range ops {
		reply = binary.LittleEndian.AppendUint32(reply, statuses[i])
		if statuses[i] == StatusOK && ops[i].Kind == OpGet {
			reply = binary.LittleEndian.AppendUint32(reply, uint32(len(vals[i])))
			reply = append(reply, vals[i]...)
			for len(reply)%4 != 0 {
				reply = append(reply, 0)
			}
		}
	}
	sc.reply = reply
	if len(reply) > MaxBatchImage {
		// The client oversized its batch against the reply budget; an
		// empty reply reports the protocol error batch-wide.
		b.Finish(ProcBatch, 0)
		return
	}
	b.WriteResults(reply)
	b.Finish(ProcBatch, len(reply))
}

// serveRepl applies one pushed batch of replicated writes. Stream-mode
// records (in-regime replication, snapshot resync) apply unconditionally
// — but only after the epoch fence: a record minted under an older shard
// epoch than this node currently observes is a deposed primary's residue
// and is rejected batch-wide with StatusStaleEpoch, so the old regime can
// never scribble over the new one. Merge-mode records (heal-time handback
// from a deposed primary) skip the fence and apply highest-version-wins.
func (sn *serverNode) serveRepl(b *srpc.Binding) {
	a := sn.app
	sc := &sn.repl
	_, alen := b.NextCall()
	sc.args = b.ReadArgs(sc.args, alen)
	// The records before a malformed one still apply, as they would had
	// the image been decoded record by record.
	mode, recs, err := decodeRepl(sc.args, sc.recs)
	sc.recs = recs
	status := uint32(StatusOK)
	for _, rec := range recs {
		if rec.Shard >= len(sn.shards) {
			status = StatusBadRequest
			break
		}
		if mode == replModeStream && rec.Epoch < sn.app.Map.Shards[rec.Shard].Epoch {
			status = StatusStaleEpoch
			a.Rec.Count(&a.Rec.EpochRejected, "epoch.rejected", 1)
			break
		}
		val := append([]byte(nil), rec.Val...)
		if mode == replModeMerge {
			sn.shards[rec.Shard].store.PutIfNewer(rec.Key, val, rec.Ver)
		} else {
			sn.shards[rec.Shard].store.PutVer(rec.Key, val, rec.Ver)
		}
	}
	if err != nil && status == StatusOK {
		status = StatusBadRequest
	}
	if status == StatusBadRequest {
		a.Rec.Count(&a.Rec.ReplBad, "repl.bad", 1)
	}
	var reply [4]byte
	binary.LittleEndian.PutUint32(reply[:], status)
	b.WriteResults(reply[:])
	b.Finish(ProcRepl, len(reply))
}

// resyncDue reports whether this node owes a snapshot to a reachable,
// unsynced follower of a shard it leads with no session already running.
func (sn *serverNode) resyncDue() bool {
	a := sn.app
	for s := range a.Map.Shards {
		in := a.Map.Shards[s]
		if in.Primary == sn.node && in.Replica >= 0 && !in.Synced &&
			!sn.session[s] && a.serving(in.Replica) {
			return true
		}
	}
	return false
}

// startResyncs opens a snapshot session for every owed shard. The snapshot
// is built in one host step on the serial server process — atomic with
// respect to this node's writes — and chunked onto the follower's
// replication proxy as fire-and-forget entries; writes admitted while the
// stream drains follow it through the same FIFO, so the follower converges
// in order. Synced flips when the proxy reports the session's last entry
// acknowledged. Returns whether any session was started.
func (sn *serverNode) startResyncs() bool {
	a := sn.app
	did := false
	for s := range a.Map.Shards {
		in := a.Map.Shards[s]
		if in.Primary != sn.node || in.Replica < 0 || in.Synced ||
			sn.session[s] || !a.serving(in.Replica) {
			continue
		}
		did = true
		sn.session[s] = true
		px := sn.out[in.Replica]
		st := sn.shards[s].store
		keys := st.SortedKeys()
		var recs []replRec
		size := 8
		for _, k := range keys {
			v, ver, _ := st.GetVer(k)
			if size+replRecSize(len(v)) > replChunk && len(recs) > 0 {
				sn.pendingRepl[s]++
				px.push(&outEntry{shard: s, recs: recs, snapshot: true}, false)
				recs, size = nil, 8
			}
			recs = append(recs, replRec{Shard: s, Key: k, Epoch: in.Epoch, Ver: ver, Val: v})
			size += replRecSize(len(v))
		}
		// The final (possibly empty) chunk closes the session when acked.
		sn.pendingRepl[s]++
		px.push(&outEntry{shard: s, recs: recs, snapshot: true}, false)
	}
	return did
}

// outEntry is one unit of outbound replication bound for one follower:
// a synchronously awaited write group, a fire-and-forget resync session
// record, or a heal-time merge handback.
type outEntry struct {
	shard    int // session shard; -1 for wait and merge entries
	recs     []replRec
	wait     bool // serveBatch blocks until done
	snapshot bool // resync chunk: counts toward ResyncKeys
	merge    bool // heal-time handback: sent in merge mode, no session bookkeeping
	done     bool
	failed   bool
}

// outProxy is the per-(node, target) outbound replication channel: a
// dedicated process owning the SRPC binding to the target's replication
// port, streaming queued entries — synchronously awaited write groups
// ahead of resync session chunks. Per-shard order stays total because a
// shard's entries live in exactly one queue at a time (session queue while
// resyncing, wait queue once synced, and the flip happens only when the
// session queue holds nothing for the shard). Owning the binding here
// keeps the slow conventional-network rendezvous off the batch server's
// critical path: a rebind to a rejoined node stalls only this target's
// replication, never client serving.
type outProxy struct {
	sn     *serverNode
	target int
	waitQ  entryQueue
	sessQ  entryQueue
	// cond signals both arrivals (to the proxy) and completions (to
	// serveBatch waiters).
	cond *sim.Cond
	b    *srpc.Binding
	gen  int
	// bo paces the proxy after a failed call: consecutive failures back
	// off exponentially (jittered per (node, target) so a partition's
	// victims do not retry in lockstep) instead of hammering the dead
	// route at the replication deadline. Reset on any success.
	bo *retry.Backoff
	// img and reply are the proxy process's reused call and reply images.
	img, reply []byte
}

// entryQueue is a head-indexed FIFO.
type entryQueue struct {
	q    []*outEntry
	head int
}

func (eq *entryQueue) push(e *outEntry) { eq.q = append(eq.q, e) }
func (eq *entryQueue) len() int         { return len(eq.q) - eq.head }
func (eq *entryQueue) pop() *outEntry {
	e := eq.q[eq.head]
	eq.q[eq.head] = nil
	eq.head++
	if eq.head == len(eq.q) {
		eq.q, eq.head = eq.q[:0], 0
	}
	return e
}

// push enqueues an entry and wakes the proxy.
func (px *outProxy) push(e *outEntry, urgent bool) {
	if urgent {
		px.waitQ.push(e)
	} else {
		px.sessQ.push(e)
	}
	px.cond.Broadcast()
}

// body runs the proxy process: prebind to the target during warmup if this
// node initially leads a shard the target follows (so the first admitted
// write never stalls a client batch behind the rendezvous), report
// readiness, then drain entries forever.
func (px *outProxy) body(p *kernel.Process) {
	p.P.MarkService()
	a := px.sn.app
	ep := vmmc.Attach(p, a.Cl.Node(px.sn.node).Daemon)
	if px.prebinds() {
		for !a.serving(px.target) && !a.down[px.target] {
			a.ready.Wait(p.P)
		}
		if a.serving(px.target) {
			// A warmup bind failure is not a death verdict; the fast-path
			// call timeout decides that later.
			px.bind(ep)
		}
	}
	a.proxyUp(px.sn.node)
	for {
		for px.waitQ.len() == 0 && px.sessQ.len() == 0 {
			px.cond.Wait(p.P)
		}
		var e *outEntry
		if px.waitQ.len() > 0 {
			e = px.waitQ.pop()
		} else {
			e = px.sessQ.pop()
		}
		px.run(p, ep, e)
	}
}

// prebinds reports whether the target currently follows a shard this node
// leads, i.e. the binding will be needed as soon as writes flow.
func (px *outProxy) prebinds() bool {
	for _, in := range px.sn.app.Map.Shards {
		if in.Primary == px.sn.node && in.Replica == px.target {
			return true
		}
	}
	return false
}

// bind establishes the replication binding under BindDeadline; a dead
// target is caught by the replication call timeout instead.
func (px *outProxy) bind(ep *vmmc.Endpoint) bool {
	a := px.sn.app
	b, err := srpc.Bind(ep, a.Cl.Ether, px.target, ReplPort, BindDeadline)
	if err != nil {
		a.Rec.Count(&a.Rec.ReplFail, "repl.fail", 1)
		return false
	}
	px.b, px.gen = b, a.gen[px.target]
	return true
}

// run streams one entry to the target, rebinding first when the cached
// binding is missing or belongs to a dead incarnation. A call timeout
// reports the target down; whether that deposes it is the quorum's call —
// vetoed reports leave the entry failed (serveBatch then refuses the ack
// with StatusUnavailable), honored ones degrade the shard map (awaited
// writes stay acknowledged: the primary's copy is the one the ack
// promised). A StatusStaleEpoch reply is not a death verdict at all: the
// target is alive and fencing THIS node's old regime out, so the entry
// just fails. After any transport failure the proxy sleeps its jittered
// exponential backoff before touching the next entry.
func (px *outProxy) run(p *kernel.Process, ep *vmmc.Endpoint, e *outEntry) {
	a := px.sn.app
	if !a.serving(px.target) {
		px.finish(e, true)
		return
	}
	if px.b == nil || px.gen != a.gen[px.target] {
		if !px.bind(ep) {
			a.ReportDown(px.sn.node, px.target)
			px.finish(e, true)
			px.pace(p)
			return
		}
	}
	mode := uint32(replModeStream)
	if e.merge {
		mode = replModeMerge
	}
	sent := 0
	for sent < len(e.recs) {
		// Count and mode words first, filled in once the chunk is cut.
		img := append(px.img[:0], make([]byte, 8)...)
		cnt := 0
		for sent+cnt < len(e.recs) {
			r := e.recs[sent+cnt]
			if len(img)+replRecSize(len(r.Val)) > replChunk && cnt > 0 {
				break
			}
			img = appendReplRec(img, r)
			cnt++
		}
		binary.LittleEndian.PutUint32(img, uint32(cnt))
		binary.LittleEndian.PutUint32(img[4:], mode)
		px.img = img
		rlen, err := px.b.CallTimeout(ProcRepl, img, replDeadline)
		if err != nil {
			a.Rec.Count(&a.Rec.ReplFail, "repl.fail", 1)
			px.b = nil
			a.ReportDown(px.sn.node, px.target)
			px.finish(e, true)
			px.pace(p)
			return
		}
		px.reply = px.b.ReadReply(px.reply, rlen)
		if st := replReplyStatus(px.reply); st != StatusOK {
			// The target answered and refused: it is alive, so no death
			// report and no backoff — just give up on this entry.
			if st != StatusStaleEpoch {
				a.Rec.Count(&a.Rec.ReplBad, "repl.bad", 1)
			}
			px.finish(e, true)
			px.bo.Reset()
			return
		}
		sent += cnt
	}
	px.finish(e, false)
	px.bo.Reset()
}

// pace sleeps the proxy's post-failure backoff. The budget is effectively
// infinite, but re-arm defensively if it ever runs dry.
func (px *outProxy) pace(p *kernel.Process) {
	w, ok := px.bo.Next()
	if !ok {
		px.bo.Reset()
		w, _ = px.bo.Next()
	}
	p.P.Sleep(w)
}

// replReplyStatus decodes a replication reply's status word.
func replReplyStatus(reply []byte) uint32 {
	if len(reply) < 4 {
		return StatusBadRequest
	}
	return binary.LittleEndian.Uint32(reply)
}

// finish completes an entry: account it, advance session bookkeeping (the
// last acknowledged session entry for a shard flips it Synced), and wake
// waiters.
func (px *outProxy) finish(e *outEntry, failed bool) {
	sn := px.sn
	a := sn.app
	e.failed = failed
	e.done = true
	if !failed {
		if e.snapshot {
			a.Rec.Count(&a.Rec.ResyncKeys, "resync.keys", int64(len(e.recs)))
		} else {
			a.Rec.Count(&a.Rec.ReplOps, "repl.ops", int64(len(e.recs)))
		}
	}
	if !e.wait && !e.merge {
		sn.pendingRepl[e.shard]--
		if failed {
			// The target died mid-session; Fail already degraded the map.
			sn.session[e.shard] = false
		} else if sn.session[e.shard] && sn.pendingRepl[e.shard] == 0 {
			sn.session[e.shard] = false
			in := a.Map.Shards[e.shard]
			if in.Primary == sn.node && in.Replica == px.target && !a.down[px.target] {
				a.Map.Shards[e.shard].Synced = true
			}
		}
	}
	px.cond.Broadcast()
}
