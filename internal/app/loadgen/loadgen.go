package loadgen

import (
	"encoding/binary"
	"fmt"
	"time"

	"shrimp/internal/app"
	"shrimp/internal/kernel"
	"shrimp/internal/retry"
	"shrimp/internal/sim"
	"shrimp/internal/srpc"
	"shrimp/internal/vmmc"
)

// tick is the arrival-schedule quantum.
const tick = 20 * time.Microsecond

// zipfS is the Zipf exponent of key draws: skewed, hot rank 1.
const zipfS = 1.07

// valueBytes is the size of a put value: the key, gateway, and sequence
// it embeds for integrity and lost-write checks.
const valueBytes = 16

// retryBudget caps how many times one op may be retried (rerouted after a
// timeout, WrongNode, StaleEpoch, or Unavailable) before it is dropped as
// budget-exhausted.
const retryBudget = 16

// Config shapes the offered load.
type Config struct {
	// Sessions is the number of simulated client sessions, spread evenly
	// over the gateways. Sessions issue requests through their gateway's
	// seeded arrival process; a session has issued a request once the
	// gateway's session permutation reaches it, so offered load of at
	// least Sessions requests drives every session.
	Sessions int
	// Gateways lists the nodes hosting gateway front-ends (default: all
	// nodes). A crash scenario should aim at non-gateway nodes: gateways
	// model client-side infrastructure, not the replicated service.
	Gateways []int
	// Duration is the generation window in virtual time (default 10ms).
	Duration time.Duration
	// Rate is the aggregate offered load in ops/sec of virtual time,
	// split evenly over the gateways (default 1e6).
	Rate float64
	// Keys is the key-space size; draws are Zipfian ranks 1..Keys
	// (default 1<<16).
	Keys int
	// WriteFrac is the put fraction (default 0.1).
	WriteFrac float64
	// BatchOps caps ops per SRPC batch call (default 128; batches also
	// respect the wire image budget).
	BatchOps int
	// Seed seeds every gateway's private draw stream (default 1).
	Seed uint64
	// TrackAcks records every acknowledged put (single-gateway configs
	// only) so tests can assert no acknowledged write is lost, and arms
	// the stale-read checker: every get is audited against the puts
	// acknowledged before it was sent.
	TrackAcks bool
}

func (cfg *Config) defaults(nodes int) error {
	if len(cfg.Gateways) == 0 {
		for i := 0; i < nodes; i++ {
			cfg.Gateways = append(cfg.Gateways, i)
		}
	}
	if cfg.Sessions == 0 {
		cfg.Sessions = 1 << 12
	}
	if cfg.Duration == 0 {
		cfg.Duration = 10 * time.Millisecond
	}
	if cfg.Rate == 0 {
		cfg.Rate = 1e6
	}
	if cfg.Keys == 0 {
		cfg.Keys = 1 << 16
	}
	if cfg.WriteFrac == 0 {
		cfg.WriteFrac = 0.1
	}
	if cfg.BatchOps == 0 {
		cfg.BatchOps = 128
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.TrackAcks && len(cfg.Gateways) != 1 {
		return fmt.Errorf("loadgen: TrackAcks needs exactly one gateway, have %d", len(cfg.Gateways))
	}
	return nil
}

// gop is one generated request from arrival to terminal status.
type gop struct {
	key   uint64
	arr   sim.Time
	shard uint16
	kind  uint8
	seq   uint32
	// tries counts retries spent (timeout requeues, WrongNode,
	// StaleEpoch, Unavailable); past the budget the op is dropped.
	tries int
}

// queue is a head-indexed FIFO of ops bound for one target node.
type queue struct {
	ops  []gop
	head int
}

func (q *queue) size() int { return len(q.ops) - q.head }

func (q *queue) push(op gop) {
	if q.head > 1024 && q.head*2 > len(q.ops) {
		q.ops = append(q.ops[:0], q.ops[q.head:]...)
		q.head = 0
	}
	q.ops = append(q.ops, op)
}

func (q *queue) pushFront(ops []gop) {
	rest := q.ops[q.head:]
	merged := make([]gop, 0, len(ops)+len(rest))
	merged = append(merged, ops...)
	merged = append(merged, rest...)
	q.ops, q.head = merged, 0
}

func (q *queue) popUpTo(n int) []gop {
	if m := q.size(); n > m {
		n = m
	}
	out := q.ops[q.head : q.head+n]
	q.head += n
	return out
}

// Gen is one running load generation over an app.
type Gen struct {
	app *app.App
	cfg Config
	gws []*gateway

	// AckedPuts maps key → highest acknowledged put sequence (TrackAcks).
	AckedPuts map[uint64]uint32
	// ackHist records, per key, the running-max acknowledged put sequence
	// at each acknowledgment instant (TrackAcks). It is the staleness
	// oracle: a get sent at time T must come back with a sequence at least
	// as new as every put acknowledged at or before T — replication
	// completes before the ack, so whichever node is primary when the get
	// arrives, a promoted follower included, already holds those writes.
	ackHist map[uint64][]ackStep

	// Warmup barrier: tickers hold generation until every sender has its
	// binding wired, so the slow conventional-network rendezvous storm at
	// startup happens off the clock instead of under the call deadline.
	senders   int
	bound     int
	boundCond *sim.Cond

	startAt  sim.Time
	finishAt sim.Time
}

// ackStep is one point in a key's acknowledgment history: by time at, puts
// up to sequence maxSeq were acknowledged.
type ackStep struct {
	at     sim.Time
	maxSeq uint32
}

// recordAck folds an acknowledged put into the key's history (TrackAcks).
// Steps append in engine time order; maxSeq is monotone even when a
// straggling retry of an older put settles after a newer one.
func (g *Gen) recordAck(key uint64, seq uint32, at sim.Time) {
	h := g.ackHist[key]
	if n := len(h); n > 0 && h[n-1].maxSeq > seq {
		seq = h[n-1].maxSeq
	}
	g.ackHist[key] = append(h, ackStep{at: at, maxSeq: seq})
}

// ackedBefore returns the newest put sequence acknowledged at or before t.
func (g *Gen) ackedBefore(key uint64, t sim.Time) uint32 {
	h := g.ackHist[key]
	lo, hi := 0, len(h)
	for lo < hi {
		mid := (lo + hi) / 2
		if h[mid].at <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return h[lo-1].maxSeq
}

// waitBound parks until every sender finished its warmup bind.
func (g *Gen) waitBound(p *sim.Proc) {
	for !g.allBound(p) {
		g.boundCond.Wait(p)
	}
}

// allBound reports whether every sender finished its warmup bind; p is
// unused, so it can serve as boundCond's BroadcastIf predicate.
func (g *Gen) allBound(*sim.Proc) bool { return g.bound >= g.senders }

// WaitStarted parks until generation has begun — the serving subsystem is
// ready and the warmup bind barrier is down. Scenario drivers use it to
// schedule mid-load events (a crash) relative to the actual start of
// traffic rather than t=0, which warmup precedes by a long, topology-
// dependent stretch of rendezvous traffic.
func (g *Gen) WaitStarted(p *sim.Proc) {
	g.app.WaitReady(p)
	g.waitBound(p)
}

// Start spawns the gateways (one arrival ticker plus one sender per
// target node, on each gateway node). Generation begins once the app
// reports ready; run the cluster to drive it.
func Start(a *app.App, cfg Config) (*Gen, error) {
	if err := cfg.defaults(len(a.Cl.Nodes)); err != nil {
		return nil, err
	}
	g := &Gen{app: a, cfg: cfg,
		senders:   len(cfg.Gateways) * len(a.Cl.Nodes),
		boundCond: sim.NewCond(a.Cl.Eng)}
	if cfg.TrackAcks {
		g.AckedPuts = make(map[uint64]uint32)
		g.ackHist = make(map[uint64][]ackStep)
	}
	zipf := newZipf(cfg.Keys, zipfS)
	nodes := len(a.Cl.Nodes)
	perGW := cfg.Sessions / len(cfg.Gateways)
	for gi, node := range cfg.Gateways {
		sessions := perGW
		if gi == len(cfg.Gateways)-1 {
			sessions = cfg.Sessions - perGW*(len(cfg.Gateways)-1)
		}
		gw := &gateway{
			g:      g,
			idx:    gi,
			node:   node,
			rng:    newRng(cfg.Seed + uint64(gi)*0x9e3779b97f4a7c15),
			zipf:   zipf,
			queues: make([]queue, nodes),
			cond:   sim.NewCond(a.Cl.Eng),
			target: make(map[*sim.Proc]int, nodes),
		}
		gw.ready = func(p *sim.Proc) bool { return gw.canSend(gw.target[p]) }
		gw.perm = make([]uint32, sessions)
		for i := range gw.perm {
			gw.perm[i] = uint32(i)
		}
		for i := len(gw.perm) - 1; i > 0; i-- {
			j := gw.rng.intn(i + 1)
			gw.perm[i], gw.perm[j] = gw.perm[j], gw.perm[i]
		}
		g.gws = append(g.gws, gw)
		a.Watch(gw)
		a.Cl.Spawn(node, fmt.Sprintf("lg-tick-%d", gi), gw.tickerBody)
		for t := 0; t < nodes; t++ {
			t := t
			a.Cl.Spawn(node, fmt.Sprintf("lg-send-%d-%d", gi, t),
				func(p *kernel.Process) { gw.senderBody(p, t) })
		}
	}
	return g, nil
}

// gateway is one node's client front-end: it turns the seeded arrival
// schedule into routed per-target queues and drains them through one
// sender process per target node.
type gateway struct {
	g    *Gen
	idx  int
	node int
	rng  rng64
	zipf *zipfTable

	// perm is the seeded session-visit order; cursor wraps through it so
	// every session issues a request before any issues a second.
	perm    []uint32
	cursor  int
	wrapped bool

	queues []queue
	// cond is where the senders wait for work, and wake signals it for
	// just the senders that can proceed: target maps each sender's proc to
	// its target node, and ready is canSend on that target.
	cond   *sim.Cond
	target map[*sim.Proc]int
	ready  func(*sim.Proc) bool
	done   bool
	// outstanding counts emitted ops not yet terminal (acked, shed, or
	// dropped); senders exit once done and drained.
	outstanding int
	seq         uint32

	emitted   int64
	completed int64
}

// canSend reports whether target's sender can proceed: ops are queued
// for it, or the generator is done and drained and it can exit.
func (gw *gateway) canSend(target int) bool {
	return gw.queues[target].size() > 0 || gw.done && gw.outstanding == 0
}

// wake wakes, in the order they parked, the senders that can proceed. A
// sender with nothing to do stays parked instead of waking only to park
// again.
func (gw *gateway) wake() { gw.cond.BroadcastIf(gw.ready) }

// NodeDown implements app.FailoverWatcher: requeue everything bound for
// the corpse onto the survivors the shard map now names.
func (gw *gateway) NodeDown(node int) {
	moved := gw.queues[node].popUpTo(gw.queues[node].size())
	for _, op := range moved {
		gw.route(op)
	}
	if len(moved) > 0 {
		gw.g.app.Rec.Count(&gw.g.app.Rec.Retries, "retry", int64(len(moved)))
	}
	gw.wake()
}

// NodeUp implements app.FailoverWatcher. Nothing queues for a rejoined
// node until the map routes reads to it again; senders notice the new
// incarnation themselves.
func (gw *gateway) NodeUp(node int) { gw.wake() }

// route places an op on the queue of the node currently serving it. An
// op whose shard lost both copies (double failure) is dropped as an
// error rather than spun on.
func (gw *gateway) route(op gop) {
	t := gw.targetOf(op)
	if gw.g.app.Down(t) {
		a := gw.g.app
		a.Rec.Count(&a.Rec.Dropped, "dropped", 1)
		gw.terminal(1)
		return
	}
	gw.queues[t].push(op)
}

// tickerBody emits the arrival schedule: per tick, a rate-derived number
// of arrivals, each routed immediately. The ticker holds the engine busy
// for the whole window — it is the load.
func (gw *gateway) tickerBody(p *kernel.Process) {
	g := gw.g
	g.app.WaitReady(p.P)
	g.waitBound(p.P)
	eng := g.app.Cl.Eng
	if g.startAt == 0 {
		g.startAt = eng.Now()
	}
	end := eng.Now().Add(g.cfg.Duration)
	perTick := g.cfg.Rate / float64(len(g.cfg.Gateways)) * tick.Seconds()
	for {
		now := eng.Now()
		if now >= end {
			break
		}
		n := int(perTick)
		if gw.rng.f64() < perTick-float64(n) {
			n++
		}
		for i := 0; i < n; i++ {
			gw.emit(now)
		}
		if n > 0 {
			gw.wake()
		}
		p.P.Sleep(tick)
	}
	gw.done = true
	gw.wake()
}

// emit draws one request: the next session in the seeded permutation
// issues an op with a Zipfian key, put with probability WriteFrac.
func (gw *gateway) emit(now sim.Time) {
	g := gw.g
	gw.cursor++
	if gw.cursor == len(gw.perm) {
		gw.cursor = 0
		gw.wrapped = true
	}
	key := gw.zipf.draw(&gw.rng)
	kind, seq := uint8(app.OpGet), uint32(0)
	if gw.rng.f64() < g.cfg.WriteFrac {
		kind = app.OpPut
		gw.seq++
		seq = gw.seq
	} else {
		// A get spends one more draw of the gateway's stream, the one that
		// used to pick replica-readable gets. Every later key, put choice
		// and arrival of this gateway follows from the stream's position,
		// so dropping the draw would move every serving run.
		gw.rng.f64()
	}
	op := gop{
		key:   key,
		arr:   now,
		shard: uint16(g.app.Map.ShardOf(key)),
		kind:  kind,
		seq:   seq,
	}
	gw.emitted++
	gw.outstanding++
	gw.route(op)
}

// value builds a put's payload into dst and returns it: key, gateway, and
// sequence embedded for the reader-side integrity check and the lost-write
// audit.
func (gw *gateway) value(dst []byte, op gop) []byte {
	if cap(dst) < valueBytes {
		dst = make([]byte, valueBytes)
	}
	v := dst[:valueBytes]
	binary.LittleEndian.PutUint64(v, op.key)
	binary.LittleEndian.PutUint32(v[8:], uint32(gw.idx))
	binary.LittleEndian.PutUint32(v[12:], op.seq)
	return v
}

// terminal retires n ops and, once the generator is done and drained,
// stamps the finish time and releases the parked senders.
func (gw *gateway) terminal(n int) {
	gw.outstanding -= n
	if gw.done && gw.outstanding == 0 {
		g := gw.g
		if now := g.app.Cl.Eng.Now(); now > g.finishAt {
			g.finishAt = now
		}
		gw.wake()
	}
}

// senderRetry paces a sender after a failed call or bind: jittered
// exponential backoff so a fleet of senders cut off by the same partition
// does not re-dial in lockstep. The budget is effectively unbounded (the
// per-op retryBudget is what bounds work); any success rewinds to Base.
var senderRetry = retry.Policy{
	Base:   200 * time.Microsecond,
	Max:    10 * time.Millisecond,
	Factor: 2,
	Jitter: 0.5,
	Budget: 1 << 30,
}

// warmupBindRetry covers the warmup bind only: a couple of spaced second
// tries before leaving the binding for the serving loop to rediscover.
var warmupBindRetry = retry.Policy{
	Base:   time.Millisecond,
	Factor: 2,
	Jitter: 0.5,
	Budget: 2,
}

// sendScratch is one sender process's reused per-call state: the batch
// popped off its queue, the request image, a put's value (copied into the
// image at once) and the reply image. A gateway runs one sender per
// target, so each (gateway, target) pair owns one.
type sendScratch struct {
	batch           []gop
	img, val, reply []byte
}

// senderBody drains one target node's queue: batch, bind (rebinding when
// the target's incarnation changes), call with the failover deadline,
// then settle per-op statuses. A timeout reports the node down — the
// quorum decides whether that deposes it — requeues the batch at the
// front (spending retry budget), and backs off before the next attempt.
func (gw *gateway) senderBody(p *kernel.Process, target int) {
	g := gw.g
	a := g.app
	gw.target[p.P] = target
	a.WaitReady(p.P)
	ep := vmmc.Attach(p, a.Cl.Node(gw.node).Daemon)
	var b *srpc.Binding
	bGen := -1
	bo := retry.New(senderRetry, retry.Seed(g.cfg.Seed, uint64(gw.idx), uint64(target)))
	var sc sendScratch
	// Warmup: wire the binding before generation starts, so the rendezvous
	// storm of every sender binding at once cannot push early calls past
	// the failover deadline. A failure here is left for the serving loop to
	// rediscover (the barrier must come down either way).
	if nb, err := srpc.BindBackoff(ep, a.Cl.Ether, target, app.Port, app.BindDeadline,
		warmupBindRetry, retry.Seed(g.cfg.Seed, uint64(gw.idx), uint64(target), 1)); err == nil {
		b, bGen = nb, a.Gen(target)
	}
	g.bound++
	g.boundCond.BroadcastIf(g.allBound)
	for {
		for !gw.canSend(target) {
			gw.cond.Wait(p.P)
		}
		if gw.queues[target].size() == 0 {
			return // the generator is done and drained
		}
		if a.Down(target) {
			// Routed here before the detection; follow the survivors.
			gw.NodeDown(target)
			continue
		}
		sc.batch = gw.popBatch(sc.batch, target)
		batch := sc.batch
		if len(batch) == 0 {
			continue
		}
		if b == nil || bGen != a.Gen(target) {
			nb, err := srpc.Bind(ep, a.Cl.Ether, target, app.Port, app.BindDeadline)
			if err != nil {
				a.Rec.Count(&a.Rec.Timeouts, "client.timeout", 1)
				a.ReportDown(gw.node, target)
				gw.requeueFront(batch)
				b = nil
				gw.pace(p, bo)
				continue
			}
			b, bGen = nb, a.Gen(target)
		}
		gw.encode(&sc)
		sent := a.Cl.Eng.Now()
		rlen, err := b.CallTimeout(app.ProcBatch, sc.img, a.Cfg.CallDeadline)
		if err != nil {
			a.Rec.Count(&a.Rec.Timeouts, "client.timeout", 1)
			a.ReportDown(gw.node, target)
			gw.requeueFront(batch)
			b = nil
			gw.pace(p, bo)
			continue
		}
		bo.Reset()
		sc.reply = b.ReadReply(sc.reply, rlen)
		gw.settle(batch, sc.reply, sent)
	}
}

// pace sleeps the sender's post-failure backoff, re-arming defensively if
// the (effectively infinite) budget ever runs dry.
func (gw *gateway) pace(p *kernel.Process, bo *retry.Backoff) {
	w, ok := bo.Next()
	if !ok {
		bo.Reset()
		w, _ = bo.Next()
	}
	p.P.Sleep(w)
}

// popBatch pops ops for one call into dst's storage, bounded by the op cap
// and by both the request and worst-case reply image budgets.
func (gw *gateway) popBatch(dst []gop, target int) []gop {
	g := gw.g
	q := &gw.queues[target]
	reqBytes, repBytes := 4, 4
	n := 0
	for n < q.size() && n < g.cfg.BatchOps {
		op := q.ops[q.head+n]
		rq, rp := 16, 8+valueBytes
		if op.kind == app.OpPut {
			rq, rp = 16+4+valueBytes, 4
		}
		if reqBytes+rq > app.MaxBatchImage || repBytes+rp > app.MaxBatchImage {
			break
		}
		reqBytes += rq
		repBytes += rp
		n++
	}
	// Ops whose routing moved since enqueue go back through route(); a
	// retried put superseded by a newer acknowledged put on the same key is
	// dropped — resending it would reorder acknowledged history.
	raw := q.popUpTo(n)
	batch := dst[:0]
	for _, op := range raw {
		if op.kind == app.OpPut && g.AckedPuts != nil && op.seq < g.AckedPuts[op.key] {
			g.app.Rec.Count(&g.app.Rec.Superseded, "superseded", 1)
			gw.terminal(1)
			continue
		}
		if gw.targetOf(op) != target {
			gw.route(op)
			continue
		}
		batch = append(batch, op)
	}
	return batch
}

func (gw *gateway) targetOf(op gop) int {
	return gw.g.app.Map.Shards[op.shard].Primary
}

// requeueFront returns a failed batch to the head of its (re-routed)
// queues, preserving order. Each op spends one unit of retry budget;
// exhausted ops are dropped instead of circulating forever.
func (gw *gateway) requeueFront(batch []gop) {
	a := gw.g.app
	// Group by new target, preserving batch order within each group.
	byTarget := map[int][]gop{}
	order := []int{}
	for _, op := range batch {
		op.tries++
		if op.tries > retryBudget {
			a.Rec.Count(&a.Rec.BudgetExhausted, "budget.exhausted", 1)
			gw.terminal(1)
			continue
		}
		a.Rec.Count(&a.Rec.Retries, "retry", 1)
		t := gw.targetOf(op)
		if _, ok := byTarget[t]; !ok {
			order = append(order, t)
		}
		byTarget[t] = append(byTarget[t], op)
	}
	for _, t := range order {
		gw.queues[t].pushFront(byTarget[t])
	}
	gw.wake()
}

// retryOp spends one unit of an op's retry budget and reroutes it, or
// drops it once the budget is gone.
func (gw *gateway) retryOp(op gop) {
	a := gw.g.app
	op.tries++
	if op.tries > retryBudget {
		a.Rec.Count(&a.Rec.BudgetExhausted, "budget.exhausted", 1)
		gw.terminal(1)
		return
	}
	a.Rec.Count(&a.Rec.Retries, "retry", 1)
	gw.route(op)
	gw.wake()
}

// encode marshals sc.batch into sc.img, building each put's value in
// sc.val.
func (gw *gateway) encode(sc *sendScratch) {
	img := binary.LittleEndian.AppendUint32(sc.img[:0], uint32(len(sc.batch)))
	for _, op := range sc.batch {
		var val []byte
		if op.kind == app.OpPut {
			sc.val = gw.value(sc.val, op)
			val = sc.val
		}
		img = appendWireOp(img, op, gw.g.app.Map.Shards[op.shard].Epoch, val)
	}
	sc.img = img
}

// settle applies one reply to its batch: latencies and acks for served
// ops, requeues for WrongNode, drops (with a protocol-error count) for
// anything undecodable.
func (gw *gateway) settle(batch []gop, reply []byte, sent sim.Time) {
	g := gw.g
	a := g.app
	rec := a.Rec
	now := a.Cl.Eng.Now()
	cnt, rest, ok := replyHeader(reply)
	if !ok || int(cnt) != len(batch) {
		rec.Count(&rec.ProtoErrs, "proto.err", int64(len(batch)))
		gw.terminal(len(batch))
		return
	}
	for i := range batch {
		op := batch[i]
		st, val, next, ok := replyStatus(rest, op.kind)
		rest = next
		if !ok {
			rec.Count(&rec.ProtoErrs, "proto.err", int64(len(batch)-i))
			gw.terminal(len(batch) - i)
			return
		}
		switch st {
		case app.StatusOK, app.StatusNotFound:
			if op.kind == app.OpGet {
				ok := true
				if st == app.StatusOK && !valueChecks(val, op.key) {
					rec.Count(&rec.ValueErrs, "value.err", 1)
					ok = false
				}
				if ok && g.ackHist != nil {
					// Stale-read audit: the value must carry a sequence at
					// least as new as every put acknowledged before the get
					// was sent (NotFound counts as sequence zero).
					vseq := uint32(0)
					if st == app.StatusOK {
						vseq = binary.LittleEndian.Uint32(val[12:])
					}
					if vseq < g.ackedBefore(op.key, sent) {
						rec.Count(&rec.StaleReads, "stale.read", 1)
					}
				}
				rec.Latency(app.ClassGet, sim.Time(now.Sub(op.arr)))
				rec.Latency(app.ClassGetSrv, sim.Time(now.Sub(sent)))
			} else {
				rec.Latency(app.ClassPut, sim.Time(now.Sub(op.arr)))
				rec.Latency(app.ClassPutSrv, sim.Time(now.Sub(sent)))
				if g.AckedPuts != nil {
					if op.seq > g.AckedPuts[op.key] {
						g.AckedPuts[op.key] = op.seq
					}
					g.recordAck(op.key, op.seq, now)
				}
			}
			gw.completed++
			if a.Recovering() {
				a.NoteServed(int(op.shard))
			}
			gw.terminal(1)
		case app.StatusShed:
			gw.terminal(1)
		case app.StatusWrongNode, app.StatusStaleEpoch, app.StatusUnavailable:
			// Routing or regime moved under the op (or the primary could
			// not certify the write): re-read the map and retry, on budget.
			gw.retryOp(op)
		default:
			rec.Count(&rec.ProtoErrs, "proto.err", 1)
			gw.terminal(1)
		}
	}
}

// appendWireOp marshals one op (loadgen's view of the app wire format),
// stamping the shard's current fencing epoch at send time.
func appendWireOp(img []byte, op gop, epoch uint32, val []byte) []byte {
	return app.AppendOp(img, int(op.kind), int(op.shard), op.key, epoch, val)
}

// replyHeader reads a reply's count word.
func replyHeader(reply []byte) (uint32, []byte, bool) {
	if len(reply) < 4 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint32(reply), reply[4:], true
}

// replyStatus reads one op's status (and value, for served gets).
func replyStatus(rest []byte, kind uint8) (uint32, []byte, []byte, bool) {
	if len(rest) < 4 {
		return 0, nil, nil, false
	}
	st := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	var val []byte
	if st == app.StatusOK && kind == app.OpGet {
		if len(rest) < 4 {
			return 0, nil, nil, false
		}
		n := int(binary.LittleEndian.Uint32(rest))
		pn := (n + 3) &^ 3
		if 4+pn > len(rest) {
			return 0, nil, nil, false
		}
		val = rest[4 : 4+n]
		rest = rest[4+pn:]
	}
	return st, val, rest, true
}

// valueChecks verifies a read value embeds the key it was stored under.
func valueChecks(val []byte, key uint64) bool {
	return len(val) >= 16 && binary.LittleEndian.Uint64(val) == key
}

// Report summarizes a finished run.
type Report struct {
	Sessions  int64 // distinct sessions that issued at least one request
	Requests  int64 // arrivals emitted
	Completed int64 // ops acknowledged (served or not-found)

	// Quantiles per class, virtual nanoseconds.
	P50, P99, P999 [4]int64

	ThroughputOpsSec float64 // completed ops per second of virtual makespan
	MakespanNS       int64

	Recovery time.Duration // measured failover recovery, zero if none
}

// Done reports whether every gateway finished generating and drained.
func (g *Gen) Done() bool {
	for _, gw := range g.gws {
		if !gw.done || gw.outstanding != 0 {
			return false
		}
	}
	return true
}

// Report builds the run summary; call after the cluster drains.
func (g *Gen) Report() Report {
	r := Report{Recovery: g.app.RecoveryTime()}
	for _, gw := range g.gws {
		if gw.wrapped {
			r.Sessions += int64(len(gw.perm))
		} else {
			r.Sessions += int64(gw.cursor)
		}
		r.Requests += gw.emitted
		r.Completed += gw.completed
	}
	for c := 0; c < 4; c++ {
		r.P50[c] = g.app.Rec.Quantile(c, 0.50)
		r.P99[c] = g.app.Rec.Quantile(c, 0.99)
		r.P999[c] = g.app.Rec.Quantile(c, 0.999)
	}
	r.MakespanNS = int64(g.finishAt.Sub(g.startAt))
	if r.MakespanNS > 0 {
		r.ThroughputOpsSec = float64(r.Completed) / (float64(r.MakespanNS) / 1e9)
	}
	return r
}
