package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"shrimp/internal/fault"
	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// randomDims draws a 1-to-4-dimensional geometry with small radices, biased
// so multi-node worlds dominate.
func randomDims(rng *rand.Rand) []int {
	nd := 1 + rng.Intn(4)
	dims := make([]int, nd)
	for d := range dims {
		dims[d] = 1 + rng.Intn(5)
	}
	return dims
}

// Property: on any k-ary n-cube geometry, a dimension-order route moves in
// exactly one dimension per hop, never returns to a lower dimension once a
// higher one has moved (the Dally/Seitz deadlock-freedom invariant), and has
// length equal to the sum of per-dimension coordinate distances.
func TestNDimRouteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := NewDims(e, randomDims(rng))
		src := NodeID(rng.Intn(n.Nodes()))
		dst := NodeID(rng.Intn(n.Nodes()))
		path := n.Route(src, dst)
		if path[0] != int(src) || path[len(path)-1] != int(dst) {
			return false
		}
		wantLen := 1
		for d := range n.dims {
			diff := n.coordAt(src, d) - n.coordAt(dst, d)
			if diff < 0 {
				diff = -diff
			}
			wantLen += diff
		}
		if len(path) != wantLen {
			return false
		}
		highest := -1 // highest dimension that has moved so far
		for i := 0; i+1 < len(path); i++ {
			moved := -1
			for d := range n.dims {
				c0 := n.coordAt(NodeID(path[i]), d)
				c1 := n.coordAt(NodeID(path[i+1]), d)
				if c0 == c1 {
					continue
				}
				if moved >= 0 {
					return false // two dimensions changed in one hop
				}
				if c1-c0 != 1 && c0-c1 != 1 {
					return false // a hop must move exactly one step
				}
				moved = d
			}
			if moved < 0 {
				return false // a hop must move
			}
			if moved < highest {
				return false // returned to a lower dimension: illegal turn
			}
			highest = moved
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestNDimLinearLayout pins the linear-index convention: dimension 0 varies
// fastest, so {x, y} reproduces the prototype's (i%x, i/x) layout and a
// 3-D route corrects dim 0, then 1, then 2.
func TestNDimLinearLayout(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{4, 3, 2})
	// node 0 = (0,0,0); node 23 = (3,2,1).
	got := n.Route(0, 23)
	want := []int{0, 1, 2, 3, 7, 11, 23}
	if len(got) != len(want) {
		t.Fatalf("route = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("route = %v, want %v", got, want)
		}
	}
}

// TestNDimDelivery: packets actually traverse a 3-D world end to end, and
// the uncontended latency matches hops*hopLatency + one serialization.
func TestNDimDelivery(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{2, 2, 2})
	var at sim.Time
	n.Attach(7, func(p *Packet) { at = e.Now() })
	pkt := &Packet{Src: 0, Dst: 7, Payload: make([]byte, 4)}
	n.Send(pkt)
	e.RunAll()
	// Channels: inject, 0->1, 1->3, 3->7, eject = 5; header pays hop
	// latency after each of the first 4.
	ser := time.Duration(pkt.Size()) * hw.MeshLinkPerByte
	want := sim.Time(0).Add(4*hw.MeshHopLatency + ser)
	if at != want {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}

// TestSeverPlaneSeversTopology: severing the nodes on one side of a plane
// through the mesh partitions any geometry cleanly — packets crossing the
// plane die, packets on one side flow.
func TestSeverPlaneSeversTopology(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{4, 3, 2})
	var low []int // dim-1 coordinate < 2: 4*2*2 = 16 nodes
	for i := 0; i < n.Nodes(); i++ {
		if n.coordAt(NodeID(i), 1) < 2 {
			low = append(low, i)
		}
	}
	if len(low) != 16 {
		t.Fatalf("low side = %d nodes, want 16", len(low))
	}
	inj := fault.NewInjector(7, fault.Plan{})
	n.SetInjector(inj)
	deliveries := 0
	for i := 0; i < n.Nodes(); i++ {
		n.Attach(NodeID(i), func(*Packet) { deliveries++ })
	}
	inj.Sever(low, false)
	n.Send(&Packet{Src: 0, Dst: NodeID(n.Nodes() - 1), Payload: []byte("x")}) // crosses
	n.Send(&Packet{Src: 0, Dst: 5, Payload: []byte("x")})                     // same side
	e.RunAll()
	if deliveries != 1 || n.PacketsDropped != 1 {
		t.Fatalf("deliveries=%d dropped=%d, want 1/1", deliveries, n.PacketsDropped)
	}
}

// liveFlows counts the flow records filed under any source: the pairs with
// packets in flight.
func (n *Network) liveFlows() int {
	c := 0
	for _, live := range n.flows {
		c += len(live)
	}
	return c
}

// TestStateMapsPruned is the regression test for the O(N²) state bug: after
// an all-pairs workload drains, no per-(src,dst) flow record may survive —
// not one per pair ever used.
func TestStateMapsPruned(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{4, 4})
	for i := 0; i < n.Nodes(); i++ {
		n.Attach(NodeID(i), func(*Packet) {})
	}
	sent := 0
	for s := 0; s < n.Nodes(); s++ {
		for d := 0; d < n.Nodes(); d++ {
			if s == d {
				continue
			}
			n.Send(&Packet{Src: NodeID(s), Dst: NodeID(d), Payload: make([]byte, 64)})
			sent++
		}
	}
	if n.liveFlows() == 0 {
		t.Fatal("expected in-flight state while packets are in the pipe")
	}
	e.RunAll()
	if n.PacketsDelivered != int64(sent) {
		t.Fatalf("delivered %d of %d", n.PacketsDelivered, sent)
	}
	if n.liveFlows() != 0 {
		t.Fatalf("flow records not pruned after drain: %d live", n.liveFlows())
	}
}

// TestStateMapsPrunedOrdering: pruning must not weaken per-pair FIFO — a
// second wave on the same pairs after a full drain still arrives in order.
func TestStateMapsPrunedOrdering(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{2, 2})
	var got []uint32
	n.Attach(3, func(p *Packet) { got = append(got, p.DstOff) })
	wave := func(base uint32) {
		for i := uint32(0); i < 10; i++ {
			n.Send(&Packet{Src: 0, Dst: 3, DstOff: base + i, Payload: make([]byte, int(i%3)*128)})
		}
		e.RunAll()
	}
	wave(0)
	if n.liveFlows() != 0 {
		t.Fatal("pair state survived the drain")
	}
	wave(100)
	if len(got) != 20 {
		t.Fatalf("delivered %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order after prune: %v", got)
		}
	}
}

// A drained pair's flow record goes back to the free list zeroed, floor 0
// and count 0, and the next pair to start takes it. The reused record
// keeps the backplane's ordering semantics: FIFO under Delay faults, which
// push the floor, and overtaking under Reorder faults, which do not.
func TestFlowRecordRecycled(t *testing.T) {
	for _, tc := range []struct {
		name     string
		faults   fault.LinkFaults
		overtake bool
	}{
		{"delay", fault.LinkFaults{DelayProb: 1, DelayMax: 50 * time.Microsecond}, false},
		{"reorder", fault.LinkFaults{ReorderProb: 1, DelayMax: 50 * time.Microsecond}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			n := NewDims(e, []int{2, 2})
			n.SetInjector(fault.NewInjector(7, fault.Plan{Link: tc.faults}))
			got := map[NodeID][]uint32{}
			for i := 0; i < n.Nodes(); i++ {
				n.Attach(NodeID(i), func(p *Packet) { got[p.Src] = append(got[p.Src], p.DstOff) })
			}
			const count = 20
			wave := func(src, dst NodeID) {
				for i := uint32(0); i < count; i++ {
					n.Send(&Packet{Src: src, Dst: dst, DstOff: i, Payload: make([]byte, 64)})
					if f := n.liveFlow(src, dst); f == nil || f.inFlight != int(i)+1 {
						t.Fatalf("%d -> %d: flow record %+v after %d sends", src, dst, f, i+1)
					}
				}
				e.RunAll()
			}
			wave(0, 3)
			if n.liveFlows() != 0 || len(n.freeFlows) != 1 {
				t.Fatalf("after drain: %d flows, %d free records, want 0 and 1", n.liveFlows(), len(n.freeFlows))
			}
			rec := n.freeFlows[0]
			if *rec != (flow{}) {
				t.Fatalf("recycled record not zeroed: %+v", *rec)
			}
			wave(1, 2)
			if n.liveFlows() != 0 || len(n.freeFlows) != 1 || n.freeFlows[0] != rec {
				t.Fatal("the second pair did not take and return the recycled record")
			}
			for _, src := range []NodeID{0, 1} {
				seq := got[src]
				if len(seq) != count {
					t.Fatalf("from %d: delivered %d of %d", src, len(seq), count)
				}
				overtaken := false
				for i := 1; i < len(seq); i++ {
					overtaken = overtaken || seq[i] < seq[i-1]
				}
				if overtaken != tc.overtake {
					t.Fatalf("from %d: overtaking %v, want %v: %v", src, overtaken, tc.overtake, seq)
				}
			}
		})
	}
}

// TestPutBufCap: the regression test for the unbounded free list — a fan-in
// burst that returns far more buffers than the cap must leave the pool at
// the cap, not at the burst's high-water mark.
func TestPutBufCap(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{4, 4})
	// Every node floods node 0 with pooled packets; the receiver recycles
	// each payload, as the NIC does.
	n.Attach(0, func(p *Packet) {
		if p.Pooled {
			n.PutBuf(p.Payload)
		}
	})
	for i := 1; i < n.Nodes(); i++ {
		n.Attach(NodeID(i), func(*Packet) {})
	}
	const perSender = 64 // 15 senders * 64 = 960 returned buffers
	for s := 1; s < n.Nodes(); s++ {
		for k := 0; k < perSender; k++ {
			b := append(n.GetBuf(), make([]byte, 32)...)
			n.Send(&Packet{Src: NodeID(s), Dst: 0, Payload: b, Pooled: true})
		}
	}
	e.RunAll()
	if len(n.bufs) > maxFreeBufs {
		t.Fatalf("free list grew to %d, cap is %d", len(n.bufs), maxFreeBufs)
	}
	// Direct overflow: returning more than the cap in one instant drops
	// the excess too.
	for i := 0; i < 2*maxFreeBufs; i++ {
		n.PutBuf(make([]byte, 0, hw.MaxPacketPayload))
	}
	if len(n.bufs) != maxFreeBufs {
		t.Fatalf("free list = %d after overflow, want exactly %d", len(n.bufs), maxFreeBufs)
	}
}
