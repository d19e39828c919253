// Router-level combining of collective traffic — the NYU-Ultracomputer
// lineage the ROADMAP names. With combining enabled, a collective operation
// (barrier, integer fetch-add, float sum) is carried by small combine
// packets that climb the mesh's dimension-order reduction tree: every
// router's parent is its first hop toward node 0, so every tree edge is a
// legal dimension-order link and combining traffic shares real channel
// occupancy with data traffic (contention is visible). A router holds its
// subtree's partial result until all children plus its own node have
// contributed, then forwards one merged packet upward; the root broadcasts
// the final value back down the same tree and ejects it at every node.
//
// The result: a barrier or global sum costs O(diameter) link traversals
// instead of the O(log N) full software message rounds of recursive
// doubling — and only 2(N-1) link packets total instead of N log N.
//
// Model notes:
//
//   - Combining packets are control traffic on the reliable-by-construction
//     backplane: the fault injector does not perturb them (the software
//     recursive-doubling path in nx remains the baseline for experiments
//     that need collectives under fire).
//   - All participants must be live; a crashed node would stall the wait —
//     exactly as it stalls the software path.
//   - Merge order at a router is delivery-event order, which is
//     deterministic, so float sums are bit-for-bit reproducible run to run.
//   - Per-operation state is taken from a pool when the first contribution
//     arrives and returned when the last result is delivered, and every
//     packet in flight is a pooled hop record with prebuilt callbacks, so
//     steady-state memory is bounded by concurrent collectives, not by
//     history, and a warm collective allocates nothing.
package mesh

import (
	"fmt"
	"slices"
	"time"

	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// CombOp selects what a combining collective computes.
type CombOp int

const (
	// CombBarrier carries no value: completion means every node arrived.
	CombBarrier CombOp = iota
	// CombISum folds int64 contributions with wrapping addition (the
	// fetch-add of the Ultracomputer design, all-reduce flavored).
	CombISum
	// CombFSum folds float64 contributions in deterministic tree order.
	CombFSum
)

// combPayloadBytes is the wire size of a combine packet's value (one
// 64-bit operand); the header is the normal backplane packet header.
const combPayloadBytes = 8

// combining is the per-network combining engine state.
type combining struct {
	// parent[r] is the next router from r toward node 0 (-1 at the root);
	// kids[r] lists r's tree children in ascending index order.
	parent []int
	kids   [][]int
	// need[r] counts contributions router r merges before forwarding:
	// one per child subtree plus the local node's own.
	need []int

	// ops holds the in-flight collectives; a tree holds a handful at
	// once, so Combine finds one by id with a linear scan. Entries leave
	// when the down-phase has delivered every result, back to stateFree.
	ops       []*combState
	stateFree []*combState

	// hopFree pools the combine packets in flight (see combHop).
	hopFree []*combHop

	// Merged counts router-level merges (contributions absorbed without
	// consuming an extra upward link); Delivered counts results ejected.
	Merged    int64
	Delivered int64
}

// combState is one in-flight collective. The per-router slices are sized
// once for the network and cleared on reuse; accI is live only for
// CombISum and accF only for CombFSum.
type combState struct {
	id   uint64
	op   CombOp
	got  []int // contributions seen per router
	accI []int64
	accF []float64
	cbs  []func(ival int64, fval float64)
	// resI/resF hold the root's final value during the down-phase.
	resI    int64
	resF    float64
	pending int // results not yet delivered
}

// EnableCombining arms router-level combining on the backplane. Call it
// before traffic flows (cluster.New does, when Config.Combining is set).
func (n *Network) EnableCombining() {
	if n.comb != nil {
		return
	}
	c := &combining{
		parent: make([]int, n.total),
		kids:   make([][]int, n.total),
		need:   make([]int, n.total),
	}
	for r := 0; r < n.total; r++ {
		c.need[r] = 1 // the local node's own contribution
		if r == 0 {
			c.parent[r] = -1
			continue
		}
		// Parent = first hop of the dimension-order route toward node 0,
		// so the reduction tree is embedded in legal routing links.
		c.parent[r] = n.Route(NodeID(r), 0)[1]
	}
	for r := 1; r < n.total; r++ {
		p := c.parent[r]
		c.kids[p] = append(c.kids[p], r) // ascending r: deterministic order
		c.need[p]++
	}
	n.comb = c
}

// CombiningEnabled reports whether the backplane merges collective traffic
// in-network.
func (n *Network) CombiningEnabled() bool { return n.comb != nil }

// CombStats returns (merges absorbed at routers, results delivered) since
// combining was enabled.
func (n *Network) CombStats() (merged, delivered int64) {
	if n.comb == nil {
		return 0, 0
	}
	return n.comb.Merged, n.comb.Delivered
}

// Combine contributes node's operand to collective id and registers done to
// receive the final value when the tree completes. All participants must
// use the same id and op for one collective, and ids must not be reused
// while in flight (nx derives them from its global collective sequence).
// done runs in engine context at the virtual time the result packet is
// ejected at node; it is the caller's one wake for this collective, so the
// caller typically records the value and signals a cond only its own proc
// waits on.
func (n *Network) Combine(node NodeID, op CombOp, id uint64, ival int64, fval float64, done func(ival int64, fval float64)) {
	if n.comb == nil {
		//lint:allow transitive-panic harness wiring bug: callers check CombiningEnabled first
		panic("mesh: Combine without EnableCombining")
	}
	if int(node) < 0 || int(node) >= n.total {
		//lint:allow transitive-panic harness wiring bug caught at construction
		panic(fmt.Sprintf("mesh: combine from invalid node %d", node))
	}
	c := n.comb
	st := c.lookup(id)
	if st == nil {
		st = c.newState(n.total, id, op)
	}
	if st.op != op {
		//lint:allow transitive-panic harness wiring bug: one collective, one op
		panic(fmt.Sprintf("mesh: combine id %d used with ops %d and %d", id, st.op, op))
	}
	if st.cbs[node] != nil {
		//lint:allow transitive-panic harness wiring bug: one contribution per node per collective
		panic(fmt.Sprintf("mesh: node %d contributed twice to combine id %d", node, id))
	}
	st.cbs[node] = done
	n.Trace.Count(traceTrack, "combine.contrib", 1)

	// The contribution enters the network through the node's inject
	// channel like any packet, then merges at its own router.
	serialize := time.Duration(hw.PacketHeaderBytes+combPayloadBytes) * hw.MeshLinkPerByte
	start, end := n.inject[node].srv.ReserveAt(n.eng.Now(), serialize)
	if n.Trace != nil {
		ch := &n.inject[node]
		n.Trace.Add(traceTrack, ch.span, start, end)
		n.Trace.Count(traceTrack, ch.bytes, int64(hw.PacketHeaderBytes+combPayloadBytes))
	}
	h := n.getHop(st, int(node))
	h.ival, h.fval = ival, fval
	n.eng.PostAt(end.Add(hw.MeshHopLatency), h.up)
}

// lookup returns the in-flight collective with the given id, or nil.
func (c *combining) lookup(id uint64) *combState {
	for _, st := range c.ops {
		if st.id == id {
			return st
		}
	}
	return nil
}

// newState starts collective id, reusing a retired state when one is free.
func (c *combining) newState(total int, id uint64, op CombOp) *combState {
	var st *combState
	if l := len(c.stateFree); l > 0 {
		st = c.stateFree[l-1]
		c.stateFree[l-1] = nil
		c.stateFree = c.stateFree[:l-1]
		clear(st.got)
		clear(st.cbs)
		clear(st.accI)
		clear(st.accF)
	} else {
		st = &combState{
			got:  make([]int, total),
			cbs:  make([]func(int64, float64), total),
			accI: make([]int64, total),
			accF: make([]float64, total),
		}
	}
	st.id, st.op, st.pending = id, op, total
	st.resI, st.resF = 0, 0
	c.ops = append(c.ops, st)
	return st
}

// retire drops a completed collective from the in-flight list and pools
// its state.
func (c *combining) retire(st *combState) {
	if i := slices.Index(c.ops, st); i >= 0 {
		c.ops = slices.Delete(c.ops, i, i+1)
	}
	c.stateFree = append(c.stateFree, st)
}

// combHop is one combine packet in flight toward router r: a contribution
// (ival, fval) climbing the tree, the result descending it, or the result
// leaving through r's eject channel. Records are pooled; each is built with
// its three callbacks, so posting one allocates nothing. A callback returns
// its record to the pool before acting on the fields it read.
type combHop struct {
	n     *Network
	st    *combState
	r     int
	ival  int64
	fval  float64
	up    func()
	down  func()
	eject func()
}

// getHop takes a hop record for collective st at router r from the pool.
func (n *Network) getHop(st *combState, r int) *combHop {
	c := n.comb
	var h *combHop
	if l := len(c.hopFree); l > 0 {
		h = c.hopFree[l-1]
		c.hopFree[l-1] = nil
		c.hopFree = c.hopFree[:l-1]
	} else {
		h = &combHop{n: n}
		h.up, h.down, h.eject = h.fireUp, h.fireDown, h.fireEject
	}
	h.st, h.r = st, r
	return h
}

// release returns the record to the pool and hands back what it carried.
func (h *combHop) release() (*combState, int, int64, float64) {
	st, r, ival, fval := h.st, h.r, h.ival, h.fval
	h.st, h.ival, h.fval = nil, 0, 0
	h.n.comb.hopFree = append(h.n.comb.hopFree, h)
	return st, r, ival, fval
}

// fireUp merges the carried contribution at router r.
func (h *combHop) fireUp() {
	n := h.n
	st, r, ival, fval := h.release()
	n.combContribute(st, r, ival, fval)
}

// fireDown continues the down-phase broadcast at router r.
func (h *combHop) fireDown() {
	n := h.n
	st, r, _, _ := h.release()
	n.combDown(st, r, n.eng.Now())
}

// fireEject delivers the result to router r's node.
func (h *combHop) fireEject() {
	n := h.n
	st, r, _, _ := h.release()
	c := n.comb
	c.Delivered++
	n.Trace.Count(traceTrack, "combine.result", 1)
	st.cbs[r](st.resI, st.resF)
	st.pending--
	if st.pending == 0 {
		// Last delivery: the whole collective's state goes back to the
		// pool.
		c.retire(st)
	}
}

// combContribute merges one contribution (a node's own, or a child
// subtree's partial) into router r's slot. When the slot fills, the merged
// value moves one hop up the tree — or, at the root, turns around into the
// down-phase broadcast. Runs in engine context; merge order is event order,
// which is deterministic.
func (n *Network) combContribute(st *combState, r int, ival int64, fval float64) {
	c := n.comb
	switch st.op {
	case CombISum:
		st.accI[r] += ival
	case CombFSum:
		st.accF[r] += fval
	}
	st.got[r]++
	if st.got[r] < c.need[r] {
		c.Merged++
		return
	}
	// Slot full: the router's combine ALU folds in constant time, then
	// the merged packet takes the link toward the parent.
	at := n.eng.Now().Add(hw.MeshCombineCost)
	if c.parent[r] < 0 {
		st.resI, st.resF = st.accI[r], st.accF[r]
		n.combDown(st, r, at)
		return
	}
	parent := c.parent[r]
	serialize := time.Duration(hw.PacketHeaderBytes+combPayloadBytes) * hw.MeshLinkPerByte
	_, end := n.reserveComb(n.link(r, parent), at, serialize)
	h := n.getHop(st, parent)
	h.ival, h.fval = st.accI[r], st.accF[r]
	n.eng.PostAt(end.Add(hw.MeshHopLatency), h.up)
}

// combDown delivers the final value at router r's node and forwards it to
// every tree child. The eject channel and the down links are reserved like
// any packet's, so the broadcast contends with data traffic too.
func (n *Network) combDown(st *combState, r int, at sim.Time) {
	c := n.comb
	serialize := time.Duration(hw.PacketHeaderBytes+combPayloadBytes) * hw.MeshLinkPerByte
	_, eend := n.reserveComb(&n.eject[r], at, serialize)
	n.eng.PostAt(eend, n.getHop(st, r).eject)
	for _, kid := range c.kids[r] {
		_, lend := n.reserveComb(n.link(r, kid), at, serialize)
		n.eng.PostAt(lend.Add(hw.MeshHopLatency), n.getHop(st, kid).down)
	}
}

// reserveComb reserves a channel for one combine packet and traces it.
func (n *Network) reserveComb(ch *channel, at sim.Time, serialize time.Duration) (start, end sim.Time) {
	start, end = ch.srv.ReserveAt(at, serialize)
	if n.Trace != nil {
		if wait := start.Sub(at); wait > 0 {
			n.Trace.Observe(traceTrack, "link.wait", int64(wait))
		}
		n.Trace.Add(traceTrack, ch.span, start, end)
		n.Trace.Count(traceTrack, ch.bytes, int64(hw.PacketHeaderBytes+combPayloadBytes))
	}
	return start, end
}
