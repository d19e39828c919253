package nx

import (
	"encoding/binary"
	"math"

	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
)

// NX global operations (gsync, gisum, gdsum): dimension-order recursive
// doubling over the point-to-point layer, using reserved message types well
// above the user range (NX/2 reserves types >= 1<<30 for system use). The
// type encodes the operation, a per-process collective sequence number, and
// the round within the exchange, so back-to-back collectives and
// fast-vs-slow nodes can never consume each other's messages.
const (
	typGSync = iota
	typGISum
	typGDSum
	collBase = 1 << 30
)

// collType builds the wire type for a collective message. Layout, low to
// high: round in bits 0-5, sequence in bits 6-27 (a 22-bit window — two
// collectives alias only if they are 4M apart AND simultaneously in flight,
// versus 64 apart before this field was widened), op in bits 28-29, and
// collBase as bit 30. The whole value stays below 2^31, so it survives the
// int32 wire representation of message types.
func collType(op int, seq uint32, round int) int {
	return collBase | op<<28 | int(seq&0x3fffff)<<6 | round
}

// Gsync blocks until every process has entered the barrier.
func (nx *NX) Gsync() {
	if nx.comb != nil {
		nx.combReduce(mesh.CombBarrier, 0, 0)
		return
	}
	nx.reduce(typGSync, nil, nil, nil)
}

// Gisum returns the sum of val across all processes.
func (nx *NX) Gisum(val int64) int64 {
	if nx.comb != nil {
		s, _ := nx.combReduce(mesh.CombISum, val, 0)
		return s
	}
	acc := val
	nx.reduce(typGISum, func(b []byte) {
		acc += int64(binary.LittleEndian.Uint64(b))
	}, func() []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(acc))
		return b[:]
	}, func(b []byte) {
		acc = int64(binary.LittleEndian.Uint64(b))
	})
	return acc
}

// Gdsum returns the float64 sum of val across all processes.
func (nx *NX) Gdsum(val float64) float64 {
	if nx.comb != nil {
		_, s := nx.combReduce(mesh.CombFSum, 0, val)
		return s
	}
	acc := val
	nx.reduce(typGDSum, func(b []byte) {
		acc += math.Float64frombits(binary.LittleEndian.Uint64(b))
	}, func() []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(acc))
		return b[:]
	}, func(b []byte) {
		acc = math.Float64frombits(binary.LittleEndian.Uint64(b))
	})
	return acc
}

// combReduce runs one collective on the in-network combining tree: the
// contribution enters through this node's inject channel, merges at routers
// on its way to the root, and the result is ejected here by the down-phase
// broadcast. The combining id is derived from the op and the same global
// collective sequence the software path numbers, so every participant names
// the collective identically; the 32-bit sequence cannot collide within the
// handful of collectives a tree holds in flight.
func (nx *NX) combReduce(op mesh.CombOp, ival int64, fval float64) (int64, float64) {
	p := nx.proc()
	p.Compute(hw.CallCost)
	nx.collSeq++
	id := uint64(op)<<32 | uint64(nx.collSeq)
	if nx.combDepth == len(nx.combRes) {
		r := &combResult{cond: sim.NewCond(p.P.Engine())}
		r.deliver = r.set
		nx.combRes = append(nx.combRes, r)
	}
	r := nx.combRes[nx.combDepth]
	nx.combDepth++
	defer nx.endComb()
	r.done = false
	nx.comb.Combine(mesh.NodeID(nx.node), op, id, ival, fval, r.deliver)
	for !r.done {
		r.cond.Wait(p.P)
	}
	p.Compute(hw.CallCost)
	return r.i, r.f
}

// combResult receives one combining collective's value. deliver is built
// once with the record, so handing it to Combine allocates nothing. NX
// keeps one per nesting level in use (combDepth): a notification handler
// may run a collective while an outer one waits. Only the proc waiting for
// this result waits on cond, so a delivery wakes that proc and no other.
type combResult struct {
	i       int64
	f       float64
	done    bool
	cond    *sim.Cond
	deliver func(int64, float64)
}

func (r *combResult) set(i int64, f float64) {
	r.i, r.f, r.done = i, f, true
	r.cond.Signal()
}

// endComb releases the innermost combResult.
func (nx *NX) endComb() { nx.combDepth-- }

// reduce runs recursive doubling: at round k, partner = node XOR 2^k. For
// non-power-of-two machine sizes the ragged nodes fold into the main block
// first. absorb merges a partner's contribution; emit renders the current
// accumulator; set overwrites the accumulator with an already-complete
// result — what a ragged-tail node does with the final value, whose own
// contribution is already folded in (absorbing there double-counted it).
// All three are nil for a pure barrier.
func (nx *NX) reduce(op int, absorb func([]byte), emit func() []byte, set func([]byte)) {
	p := nx.proc()
	p.Compute(hw.CallCost)
	nx.collSeq++
	seq := nx.collSeq
	buf := p.Alloc(16, hw.WordSize)

	send := func(to, round int) {
		payload := []byte{0}
		if emit != nil {
			payload = emit()
		}
		p.WriteBytes(buf, payload)
		nx.Csend(collType(op, seq, round), buf, len(payload), to, 0)
	}
	recv := func(round int) {
		n := nx.Crecv(collType(op, seq, round), buf, 16)
		if absorb != nil {
			absorb(p.ReadBytes(buf, n))
		}
	}

	// Fold ragged tail into the power-of-two block.
	block := 1
	for block*2 <= nx.n {
		block *= 2
	}
	if nx.node >= block {
		send(nx.node-block, 62)
		// The final result comes back complete; replace, don't absorb.
		got := nx.Crecv(collType(op, seq, 63), buf, 16)
		if set != nil {
			set(p.ReadBytes(buf, got))
		}
		return
	}
	if nx.node+block < nx.n {
		// Receive-before-send: in lazy mode the connection to the ragged
		// partner must exist before its message can match.
		nx.Connect(nx.node + block)
		recv(62)
	}

	// Recursive doubling within the block: after each round both
	// partners hold the merged value, so this is simultaneously the
	// reduce and the broadcast.
	round := 0
	for k := 1; k < block; k *= 2 {
		partner := nx.node ^ k
		send(partner, round)
		recv(round)
		round++
	}

	if nx.node+block < nx.n {
		send(nx.node+block, 63)
	}
}

// Gather collects count bytes from buf on every node into root's dst
// (root's own contribution first, then nodes in increasing order).
//
// It runs on a binomial tree over root-rotated ranks: every node assembles
// the contiguous block of ranks [v, v+span) from its children and forwards
// the whole block to its parent (rank v-span, span being v's lowest set
// bit), so any node touches O(log N) connections and the root receives
// log N block messages instead of N-1 singletons. The flat version had the
// root rendezvous with N-1 lazy importers one at a time — each gated on
// the importer's next retry poll — which at 1024 nodes took longer than
// any retry budget and congested the control network into collapse.
func (nx *NX) Gather(root int, buf kernel.VA, count int, dst kernel.VA) {
	const typGather = 3 << 28 // distinct from user types and collType space
	p := nx.proc()
	n := nx.n
	v := nx.node - root
	if v < 0 {
		v += n
	}
	span := v & -v
	if v == 0 {
		for span = 1; span < n; span *= 2 {
		}
	}
	hi := v + span
	if hi > n {
		hi = n
	}
	block := dst
	if v != 0 || root != 0 {
		block = p.Alloc((hi-v)*count, hw.WordSize)
	}
	// With root 0 the rotated ranks ARE the node ids, so children's blocks
	// land at their final dst offsets and the root assembles in place.
	p.CopyVA(block, buf, count)
	for k := 0; 1<<k < span && v+(1<<k) < n; k++ {
		cv := v + (1 << k)
		chi := cv + (1 << k)
		if chi > n {
			chi = n
		}
		// Receive-before-send: in lazy mode the child's message can only
		// match once this side has exported its half of the connection.
		nx.Connect((cv + root) % n)
		nx.Crecv(typGather+cv, block+kernel.VA((cv-v)*count), (chi-cv)*count)
	}
	if v != 0 {
		nx.Csend(typGather+v, block, (hi-v)*count, (v-span+root)%n, 0)
		return
	}
	if root == 0 {
		return
	}
	// The tree assembled in rotated-rank order; the documented dst layout
	// is root first, then nodes in increasing node id. Scatter locally.
	for q := 0; q < n; q++ {
		vq := q - root
		if vq < 0 {
			vq += n
		}
		at := 0
		switch {
		case q < root:
			at = 1 + q
		case q > root:
			at = q
		}
		p.CopyVA(dst+kernel.VA(at*count), block+kernel.VA(vq*count), count)
	}
}
