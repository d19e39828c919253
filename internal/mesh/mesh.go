// Package mesh models the SHRIMP routing backplane: a k-ary n-dimensional
// mesh of Intel Mesh Routing Chips (iMRCs), generalizing the 2-D Paragon
// network used by the prototype (paper Section 3.1) so scaling studies can
// run cube geometries the 1996 hardware never had. It implements:
//
//   - deadlock-free, oblivious dimension-order wormhole routing over any
//     number of dimensions (the 2-D case is the paper's X-then-Y);
//   - per-link bandwidth with FIFO occupancy, so contention between flows
//     sharing a link is visible;
//   - optional router-level combining of collective traffic (combine.go):
//     barrier and fetch-add packets that meet at a router merge in-network,
//     the NYU-Ultracomputer lineage; and
//   - the property VMMC depends on: the backplane "preserves the order of
//     messages from each sender to each receiver".
//
// Wormhole timing is approximated: a packet's delivery time is the time its
// last link becomes available, plus per-hop routing latency for the header
// and one serialization of the packet over the link rate (the body pipelines
// behind the header, so the size cost is paid once, not per hop). Per-pair
// ordering is additionally enforced exactly, independent of the timing
// model.
package mesh

import (
	"fmt"
	"time"

	"shrimp/internal/fault"
	"shrimp/internal/hw"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// NodeID identifies an attached node (the linear index into the mesh).
type NodeID int

// traceTrack is the mesh's track name in the observability layer: the
// backplane is one shared resource, so all channels share a single track.
const traceTrack = "mesh"

// Packet is one backplane packet. Payload is the raw data; the header fields
// mirror what the SHRIMP NIC's packetizer produces.
type Packet struct {
	Src, Dst NodeID
	// DstPFN and DstOff locate the destination in the receiver's physical
	// memory (the packet header carries a destination base address).
	DstPFN uint32
	DstOff uint32
	// Notify is the sender-specified interrupt flag in the packet header.
	Notify bool
	// Seq is the reliability sublayer's per-(src,dst) sequence number
	// (data) or cumulative ack number (control); zero when the sublayer
	// is off.
	Seq uint32
	// Ack marks a reliability-sublayer acknowledgement control packet.
	Ack bool
	// Payload is the packet body. The slice is owned by the packet.
	Payload []byte
	// Pooled marks a packet whose header (GetPacket) and payload (GetBuf)
	// belong to the network's pools: whoever consumes it last — the
	// receiver once the bytes are in DRAM, or the backplane when the
	// packet dies in flight — returns both with Recycle and must not
	// touch the packet afterwards. The reliability sublayer clears it on
	// packets it retains for retransmission, which must outlive first
	// delivery.
	Pooled bool
}

// Size returns the number of bytes the packet occupies on a link.
func (p *Packet) Size() int { return hw.PacketHeaderBytes + len(p.Payload) }

// Handler consumes packets that arrive at a node's network interface.
type Handler func(pkt *Packet)

// channel is one wormhole channel (a link or an inject/eject port) with its
// occupancy server and precomputed trace labels, so the traced send path
// never builds strings.
type channel struct {
	srv sim.Server
	chanLabels
}

// chanLabels are a channel's trace labels.
type chanLabels struct {
	span  string // e.g. "link.3>4", "inject.0"
	bytes string // e.g. "link.3>4.bytes"
}

// portLabels[0] and [1] hold inject and eject port k's labels at index k,
// and linkLabels the link from router a to b's under key {a, b}. Labels
// depend only on router numbers, so each is built once per process and
// shared by every world's channel of that name. One simulation thread per
// process, so plain tables suffice.
var (
	portLabels [2][]chanLabels
	linkLabels = map[[2]int]chanLabels{}
)

func newLabels(span string) chanLabels { return chanLabels{span, span + ".bytes"} }

// portLabel returns inject (kind 0) or eject (kind 1) port k's labels.
func portLabel(kind, k int) chanLabels {
	l := &portLabels[kind]
	for len(*l) <= k {
		*l = append(*l, newLabels(fmt.Sprintf("%s.%d", [2]string{"inject", "eject"}[kind], len(*l))))
	}
	return (*l)[k]
}

// linkLabel returns the labels of the link from router a to router b.
func linkLabel(a, b int) chanLabels {
	l, ok := linkLabels[[2]int{a, b}]
	if !ok {
		l = newLabels(fmt.Sprintf("link.%d>%d", a, b))
		linkLabels[[2]int{a, b}] = l
	}
	return l
}

// Network is a k-ary n-dimensional mesh with one attachment point per
// router. Node i's coordinate in dimension d is (i / stride[d]) % dims[d],
// with dimension 0 varying fastest — the 2-D case reads (i % X, i / X),
// exactly the prototype's layout.
type Network struct {
	eng *sim.Engine

	// dims are the per-dimension radices; strides[d] is the linear-index
	// step of one hop in dimension d (strides[0] = 1).
	dims    []int
	strides []int
	total   int

	// Trace, when non-nil, receives per-channel occupancy spans, byte
	// counters, and the packet-size histogram on the "mesh" track. Set it
	// before traffic flows (cluster.New does).
	Trace *trace.Collector

	// hops is the dense link table: hops[(r*len(dims)+d)*2+dir] is the
	// channel leaving router r in dimension d toward higher (dir 0) or
	// lower (dir 1) coordinates. Entries are built on first use (hop);
	// each wraps a Server whose occupancy models the link's wormhole
	// channel.
	hops []*channel

	// inject and eject model the NIC-to-router channels.
	inject, eject []channel

	handlers []Handler

	// dead marks detached (crashed) nodes: packets toward them vanish at
	// the dead router port instead of invoking a handler.
	dead []bool

	// inj, when non-nil, draws per-packet fault decisions (drop, corrupt,
	// delay, reorder) for every data packet crossing the backplane.
	inj *fault.Injector

	// rel, when non-nil, is the link-level retransmit sublayer
	// (reliability.go). Off by default.
	rel *reliability

	// comb, when non-nil, is the router-level combining engine for
	// collective traffic (combine.go). Off by default.
	comb *combining

	// flows[src] holds one record per destination src has packets in
	// flight to: the pair's FIFO floor and its in-flight count (see
	// flow). A source has only a few live flows, so a scan beats a map
	// keyed by pair. A record lives only while the pair has packets in
	// flight: once the count drains to zero the floor is provably
	// redundant (any later send's arrival is computed at or after the
	// last delivery), so the record is swap-removed and returned to the
	// free list. State stays bounded by nodes plus concurrent flows, not
	// by the N² pairs a 1024-node mesh could accumulate. drained is
	// broadcast on every delivery; mapping teardown uses the counts to
	// wait out the pipe.
	flows   [][]*flow
	drained *sim.Cond

	// bufs is the payload free list backing GetBuf/PutBuf, pkts the
	// header free list backing GetPacket/Recycle, dels the pool of
	// in-flight delivery records and freeFlows the pool of flow records.
	// Single simulation thread, so plain stacks suffice.
	bufs      [][]byte
	pkts      []*Packet
	dels      []*delivery
	freeFlows []*flow

	// PacketsDelivered counts total deliveries, for tests and stats.
	PacketsDelivered int64
	// BytesDelivered counts total payload bytes delivered.
	BytesDelivered int64
	// PacketsDropped counts packets lost on a link (injected drops,
	// aborted reliability flows, and arrivals at dead nodes).
	PacketsDropped int64
	// PacketsCorrupted counts arrivals discarded by the wire checksum.
	PacketsCorrupted int64
}

// NewDims builds a k-ary n-dimensional mesh backplane: dims[d] routers per
// dimension d, dimension 0 varying fastest in the linear node index.
// []int{x, y} is the prototype's x-by-y 2-D geometry.
func NewDims(eng *sim.Engine, dims []int) *Network {
	if len(dims) == 0 {
		panic("mesh: at least one dimension required")
	}
	total := 1
	strides := make([]int, len(dims))
	for d, k := range dims {
		if k <= 0 {
			panic("mesh: dimensions must be positive")
		}
		strides[d] = total
		total *= k
	}
	n := &Network{
		eng:      eng,
		dims:     append([]int(nil), dims...),
		strides:  strides,
		total:    total,
		hops:     make([]*channel, total*len(dims)*2),
		inject:   make([]channel, total),
		eject:    make([]channel, total),
		handlers: make([]Handler, total),
		dead:     make([]bool, total),
		flows:    make([][]*flow, total),
		drained:  sim.NewCond(eng),
	}
	for i := range n.inject {
		n.inject[i] = channel{sim.MakeServer(eng), portLabel(0, i)}
		n.eject[i] = channel{sim.MakeServer(eng), portLabel(1, i)}
	}
	return n
}

// Nodes returns the number of attachment points.
func (n *Network) Nodes() int { return n.total }

// GetBuf returns an empty payload buffer with room for a maximum-size
// packet body, drawn from the free list when possible. Mark packets built
// on one as Pooled so the receive path recycles it.
func (n *Network) GetBuf() []byte {
	if l := len(n.bufs); l > 0 {
		b := n.bufs[l-1]
		n.bufs[l-1] = nil
		n.bufs = n.bufs[:l-1]
		return b[:0]
	}
	return make([]byte, 0, hw.MaxPacketPayload)
}

// maxFreeBufs caps each of the network's free lists (payloads, headers,
// delivery records). A fan-in burst (every node sending to one receiver)
// can return thousands of buffers in one instant; without a cap a list
// holds the burst's high-water mark forever. Excess entries are dropped to
// the garbage collector instead.
const maxFreeBufs = 256

// PutBuf returns a payload buffer to the free list. Only buffers that came
// from GetBuf belong here; the caller must not touch b afterwards. Beyond
// maxFreeBufs the buffer is dropped, keeping pool memory bounded under
// bursty load.
func (n *Network) PutBuf(b []byte) {
	if cap(b) < hw.MaxPacketPayload || len(n.bufs) >= maxFreeBufs {
		return
	}
	n.bufs = append(n.bufs, b)
}

// GetPacket returns a zeroed packet header, drawn from the free list when
// possible. Mark it Pooled so its consumer returns it with Recycle.
func (n *Network) GetPacket() *Packet {
	if l := len(n.pkts); l > 0 {
		p := n.pkts[l-1]
		n.pkts[l-1] = nil
		n.pkts = n.pkts[:l-1]
		return p
	}
	return &Packet{}
}

// Recycle returns a Pooled packet's payload and header to the free lists;
// it does nothing to a packet that is not Pooled. The caller must not
// touch pkt afterwards.
func (n *Network) Recycle(pkt *Packet) {
	if !pkt.Pooled {
		return
	}
	n.PutBuf(pkt.Payload)
	*pkt = Packet{}
	if len(n.pkts) < maxFreeBufs {
		n.pkts = append(n.pkts, pkt)
	}
}

// Attach registers the packet handler for node id (its NIC's incoming path).
func (n *Network) Attach(id NodeID, h Handler) {
	if int(id) < 0 || int(id) >= n.Nodes() {
		panic(fmt.Sprintf("mesh: attach to invalid node %d", id))
	}
	if n.handlers[id] != nil {
		panic(fmt.Sprintf("mesh: node %d attached twice", id))
	}
	n.handlers[id] = h
	n.dead[id] = false
}

// Detach removes node id from the backplane — its router port goes dark,
// as when the node crashes. Packets already heading there vanish at
// arrival; new sends toward it are dropped at injection. Reliability
// state touching the node is reset so a restarted node (re-Attach)
// negotiates fresh sequence numbers.
func (n *Network) Detach(id NodeID) {
	if int(id) < 0 || int(id) >= n.Nodes() {
		// A wiring bug: crash plans are validated at boot.
		panic(fmt.Sprintf("mesh: detach of invalid node %d", id))
	}
	n.handlers[id] = nil
	n.dead[id] = true
	if n.rel != nil {
		n.rel.resetNode(id)
	}
}

// SetInjector arms the fault injector for every subsequent data packet.
func (n *Network) SetInjector(inj *fault.Injector) { n.inj = inj }

// coordAt returns node id's coordinate in dimension d.
func (n *Network) coordAt(id NodeID, d int) int {
	return (int(id) / n.strides[d]) % n.dims[d]
}

// Route returns the sequence of router indices a packet visits from src to
// dst under dimension-order routing (dimension 0 first — the 2-D case is
// the paper's X then Y), inclusive of both endpoints. Correcting each
// dimension completely before touching the next makes the route oblivious
// and deadlock-free (Dally/Seitz) in any number of dimensions.
func (n *Network) Route(src, dst NodeID) []int {
	path := []int{int(src)}
	cur := int(src)
	for d := range n.dims {
		c, want := n.coordAt(NodeID(cur), d), n.coordAt(dst, d)
		for c != want {
			if c < want {
				c++
				cur += n.strides[d]
			} else {
				c--
				cur -= n.strides[d]
			}
			path = append(path, cur)
		}
	}
	return path
}

// hop returns the channel leaving router r in dimension d, toward higher
// coordinates (dir 0) or lower ones (dir 1), building it on first use.
func (n *Network) hop(r, d, dir int) *channel {
	i := (r*len(n.dims)+d)*2 + dir
	c := n.hops[i]
	if c == nil {
		to := r + n.strides[d]
		if dir == 1 {
			to = r - n.strides[d]
		}
		c = &channel{sim.MakeServer(n.eng), linkLabel(r, to)}
		n.hops[i] = c
	}
	return c
}

// link returns the channel from router from to the adjacent router to.
func (n *Network) link(from, to int) *channel {
	for d := range n.dims {
		if c, w := n.coordAt(NodeID(from), d), n.coordAt(NodeID(to), d); c != w {
			if c < w {
				return n.hop(from, d, 0)
			}
			return n.hop(from, d, 1)
		}
	}
	//lint:allow transitive-panic internal routing bug: callers pass adjacent routers only
	panic(fmt.Sprintf("mesh: no link from router %d to itself", from))
}

// Send injects pkt into the backplane at the current time. Delivery is
// scheduled per the wormhole model; the handler at pkt.Dst runs when the
// tail flit is ejected. Send never blocks the caller (the NIC's outgoing
// FIFO provides the backpressure in the layer above). With the
// reliability sublayer enabled, the packet is sequenced and retransmitted
// until acknowledged.
func (n *Network) Send(pkt *Packet) {
	if n.rel != nil && !pkt.Ack {
		// The sublayer keeps the packet for retransmission; its payload
		// must survive past first delivery, so it leaves the pool's
		// ownership here.
		pkt.Pooled = false
		n.rel.send(pkt)
		return
	}
	n.transmit(pkt)
}

// transmit runs the wormhole timing model and the fault injector for one
// packet — first transmission and retransmission alike.
func (n *Network) transmit(pkt *Packet) {
	if n.dead[pkt.Dst] {
		// The destination's router port is dark (node crashed): the
		// flits fall on the floor.
		n.PacketsDropped++
		n.Recycle(pkt)
		return
	}
	if n.handlers[pkt.Dst] == nil {
		// Every node attaches its handler at construction; crashed nodes
		// are handled above.
		panic(fmt.Sprintf("mesh: send to unattached node %d", pkt.Dst))
	}
	now := n.eng.Now()
	size := pkt.Size()
	serialize := time.Duration(size) * hw.MeshLinkPerByte

	// The header visits each channel in path order: the inject channel,
	// the links of the dimension-order route (dimension 0 first, each
	// corrected completely before the next — the same walk as Route,
	// done inline over the hop table), then the eject channel.
	n.Trace.Observe(traceTrack, "packet.bytes", int64(size))
	headerAt, arrival := n.reserve(&n.inject[pkt.Src], now, serialize, size)
	cur := int(pkt.Src)
	for d, stride := range n.strides {
		c, want := n.coordAt(NodeID(cur), d), n.coordAt(pkt.Dst, d)
		for c != want {
			next, dir := cur+stride, 0
			if c < want {
				c++
			} else {
				c--
				next, dir = cur-stride, 1
			}
			headerAt, arrival = n.reserve(n.hop(cur, d, dir), headerAt, serialize, size)
			cur = next
		}
	}
	_, arrival = n.reserve(&n.eject[pkt.Dst], headerAt, serialize, size)

	// The injector draws this packet's fate after the channels were
	// occupied: a dropped or corrupted packet still burned link time.
	var act fault.Action
	var extra time.Duration
	if n.inj != nil {
		act, extra = n.inj.PathAction(int(pkt.Src), int(pkt.Dst))
	}
	if act == fault.Sever {
		// An armed partition cuts this path: the flits die at the cut.
		// Severing consumed no randomness, so arming a partition does
		// not shift the fate of unrelated packets
		// (fault.TestSeverKeepsUncutStream).
		n.PacketsDropped++
		n.Trace.Count(traceTrack, "fault.partitioned", 1)
		n.Recycle(pkt)
		return
	}
	if act == fault.Drop {
		// Lost on a link: nothing arrives. With the reliability
		// sublayer on, the sender's retransmit timer recovers.
		n.PacketsDropped++
		n.Recycle(pkt)
		return
	}

	// Enforce exact per-pair FIFO: never deliver earlier than a
	// previously-sent packet on the same (src,dst) pair. A Delay fault
	// pushes this packet AND the FIFO horizon (later packets queue
	// behind it); a Reorder fault pushes only this packet, so later
	// packets may overtake — the one injected violation of the
	// backplane's ordering guarantee.
	f := n.flowFor(pkt.Src, pkt.Dst)
	if arrival < f.last {
		arrival = f.last
	}
	switch act {
	case fault.Delay:
		arrival = arrival.Add(extra)
		f.last = arrival
	case fault.Reorder:
		f.last = arrival
		arrival = arrival.Add(extra)
	default:
		f.last = arrival
	}

	// A Corrupt fault flips bytes of the wire image. Almost always the
	// checksum catches it at the receiver; if the flips cancelled out,
	// the decode round-trips and the packet survives.
	dl := n.getDelivery()
	dl.pkt, dl.arrived, dl.flow = pkt, pkt, f
	if act == fault.Corrupt {
		wire := pkt.Encode()
		n.inj.CorruptBytes(wire)
		if dec, err := DecodePacket(wire); err != nil {
			dl.corrupted = true
		} else {
			dl.arrived = dec
		}
	}

	f.inFlight++
	n.eng.PostAt(arrival, dl.run)
}

// flow is one (src,dst) pair's in-flight state, filed under src: dst is
// the destination, last is the FIFO floor, the latest arrival time given
// to a packet that later packets may not overtake, and inFlight counts
// packets injected but not yet delivered.
type flow struct {
	dst      NodeID
	last     sim.Time
	inFlight int
}

// liveFlow returns the (src,dst) pair's record, nil when the pair has
// nothing in flight.
func (n *Network) liveFlow(src, dst NodeID) *flow {
	for _, f := range n.flows[src] {
		if f.dst == dst {
			return f
		}
	}
	return nil
}

// flowFor returns the (src,dst) pair's record, taking a fresh one from the
// free list when the pair has nothing in flight.
func (n *Network) flowFor(src, dst NodeID) *flow {
	if f := n.liveFlow(src, dst); f != nil {
		return f
	}
	var f *flow
	if l := len(n.freeFlows); l > 0 {
		f = n.freeFlows[l-1]
		n.freeFlows[l-1] = nil
		n.freeFlows = n.freeFlows[:l-1]
	} else {
		f = &flow{}
	}
	f.dst = dst
	n.flows[src] = append(n.flows[src], f)
	return f
}

// reserve holds channel c for one serialization, starting when the header
// (which reaches c at headerAt) finds it free. It returns when the header
// reaches the next channel, one router hop latency after the hold starts,
// and when c frees; on the last channel that is the tail's ejection. Under
// no contention a path costs the classic wormhole latency, hops·hopLatency
// plus one serialization; under contention, queueing shows up per channel.
func (n *Network) reserve(c *channel, headerAt sim.Time, serialize time.Duration, size int) (next, end sim.Time) {
	start, end := c.srv.ReserveAt(headerAt, serialize)
	if n.Trace != nil {
		if wait := start.Sub(headerAt); wait > 0 {
			// Channel-contention histogram: how long the header sat
			// queued behind other flows at this hop (virtual ns).
			n.Trace.Observe(traceTrack, "link.wait", int64(wait))
		}
		n.Trace.Add(traceTrack, c.span, start, end)
		n.Trace.Count(traceTrack, c.bytes, int64(size))
	}
	return start.Add(hw.MeshHopLatency), end
}

// delivery is one packet's pending arrival at its destination router port.
// Records are pooled: transmit takes one and posts its run, built once with
// the record, and the arrival returns it to the pool before acting.
type delivery struct {
	n *Network
	// pkt is the packet as sent; arrived is what the receiver gets —
	// pkt itself, or a fresh copy decoded from a corrupted wire image.
	pkt, arrived *Packet
	// flow is the packet's (src,dst) record, counting it in flight.
	flow      *flow
	corrupted bool
	run       func()
}

func (n *Network) getDelivery() *delivery {
	if l := len(n.dels); l > 0 {
		d := n.dels[l-1]
		n.dels[l-1] = nil
		n.dels = n.dels[:l-1]
		return d
	}
	d := &delivery{n: n}
	d.run = d.arrive
	return d
}

// arrive delivers the packet, or accounts for its loss.
func (d *delivery) arrive() {
	n, pkt, arrived, f, corrupted := d.n, d.pkt, d.arrived, d.flow, d.corrupted
	d.pkt, d.arrived, d.flow, d.corrupted = nil, nil, nil, false
	if len(n.dels) < maxFreeBufs {
		n.dels = append(n.dels, d)
	}

	src, dst := pkt.Src, pkt.Dst // Recycle clears pkt
	if f.inFlight--; f.inFlight == 0 {
		// Last packet for this pair: the FIFO floor is now redundant
		// (every stored floor is <= this delivery's time, and any
		// future send computes an arrival at or after its send time),
		// so the record is swap-removed from its source's live flows
		// and goes back to the free list, zeroed. This keeps the state
		// sized by concurrent flows instead of growing toward N² pairs.
		live := n.flows[src]
		last := len(live) - 1
		for i, g := range live {
			if g == f {
				live[i] = live[last]
				break
			}
		}
		live[last] = nil
		n.flows[src] = live[:last]
		*f = flow{}
		if len(n.freeFlows) < maxFreeBufs {
			n.freeFlows = append(n.freeFlows, f)
		}
	}
	switch {
	case n.dead[dst]:
		// The node crashed while the packet was in flight.
		n.PacketsDropped++
		n.Recycle(pkt)
	case corrupted:
		n.PacketsCorrupted++
		ack := pkt.Ack
		n.Recycle(pkt)
		if n.rel != nil && !ack {
			n.rel.onCorrupt(src, dst)
		}
	case n.rel != nil && !arrived.Ack && arrived.Seq != 0:
		n.rel.onData(arrived)
	default:
		if arrived != pkt {
			// A corrupt-but-decodable packet arrives as a fresh
			// copy; the original's buffer is done.
			n.Recycle(pkt)
		}
		n.deliver(arrived)
	}
	n.drained.Broadcast()
}

// deliver hands an arrived packet to the destination handler.
func (n *Network) deliver(pkt *Packet) {
	n.PacketsDelivered++
	n.BytesDelivered += int64(len(pkt.Payload))
	n.Trace.Count(traceTrack, "delivered", 1)
	n.handlers[pkt.Dst](pkt)
}

// InFlight reports the number of packets injected from src toward dst that
// have not yet been delivered. With the reliability sublayer on, sent but
// not-yet-acknowledged packets count too: they may still be retransmitted
// into the pipe.
func (n *Network) InFlight(src, dst NodeID) int {
	var c int
	if f := n.liveFlow(src, dst); f != nil {
		c = f.inFlight
	}
	if n.rel != nil {
		c += n.rel.outstanding(src, dst)
	}
	return c
}

// WaitDrained blocks p until no packets from src to dst remain in the
// backplane.
func (n *Network) WaitDrained(p *sim.Proc, src, dst NodeID) {
	for n.InFlight(src, dst) > 0 {
		n.drained.Wait(p)
	}
}
