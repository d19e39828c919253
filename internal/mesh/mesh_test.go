package mesh

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"shrimp/internal/fault"
	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

func collector(n *Network, id NodeID) *[]*Packet {
	var got []*Packet
	n.Attach(id, func(p *Packet) { got = append(got, p) })
	return &got
}

func TestDimensionOrderRoute(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{4, 4})
	// node 1 = (1,0); node 14 = (2,3). X first: 1->2, then Y: 2->6->10->14.
	got := n.Route(1, 14)
	want := []int{1, 2, 6, 10, 14}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("route = %v, want %v", got, want)
	}
	// Self route.
	if r := n.Route(5, 5); !reflect.DeepEqual(r, []int{5}) {
		t.Fatalf("self route = %v", r)
	}
	// Decreasing coordinates.
	got = n.Route(14, 1)
	want = []int{14, 13, 9, 5, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reverse route = %v, want %v", got, want)
	}
}

func TestRouteIsOblivious(t *testing.T) {
	// Same pair always uses the same path — required for in-order
	// delivery under wormhole routing.
	e := sim.NewEngine()
	n := NewDims(e, []int{4, 4})
	a := n.Route(3, 12)
	for i := 0; i < 10; i++ {
		if !reflect.DeepEqual(n.Route(3, 12), a) {
			t.Fatal("route changed between calls")
		}
	}
}

func TestDelivery(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{2, 2})
	got := collector(n, 3)
	collector(n, 0)
	pkt := &Packet{Src: 0, Dst: 3, DstPFN: 7, DstOff: 12, Payload: []byte("hi")}
	e.Spawn("send", func(p *sim.Proc) { n.Send(pkt) })
	e.RunAll()
	if len(*got) != 1 || (*got)[0] != pkt {
		t.Fatalf("delivery failed: %v", got)
	}
	if n.PacketsDelivered != 1 || n.BytesDelivered != 2 {
		t.Fatalf("stats: %d pkts %d bytes", n.PacketsDelivered, n.BytesDelivered)
	}
}

func TestLatencyModel(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{2, 2})
	var at sim.Time
	n.Attach(3, func(p *Packet) { at = e.Now() })
	pkt := &Packet{Src: 0, Dst: 3, Payload: make([]byte, 4)}
	n.Send(pkt)
	e.RunAll()
	// Channels: inject, 0->1, 1->3, eject = 4 channels; 3 hop latencies
	// between them... headerAt advances by hopLatency after each of the
	// first 3 channels; arrival = last channel start + serialize.
	ser := time.Duration(pkt.Size()) * hw.MeshLinkPerByte
	want := sim.Time(0).Add(3*hw.MeshHopLatency + ser)
	if at != want {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}

func TestPerPairOrdering(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{2, 2})
	got := collector(n, 3)
	e.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			n.Send(&Packet{Src: 0, Dst: 3, DstOff: uint32(i), Payload: make([]byte, (i%7)*64)})
		}
	})
	e.RunAll()
	if len(*got) != 50 {
		t.Fatalf("delivered %d", len(*got))
	}
	for i, p := range *got {
		if p.DstOff != uint32(i) {
			t.Fatalf("out of order at %d: %d", i, p.DstOff)
		}
	}
}

func TestContentionSerializes(t *testing.T) {
	// Two flows sharing the eject channel at node 3 must serialize there.
	e := sim.NewEngine()
	n := NewDims(e, []int{2, 2})
	var arrivals []sim.Time
	n.Attach(3, func(p *Packet) { arrivals = append(arrivals, e.Now()) })
	big := make([]byte, 64*1024)
	n.Send(&Packet{Src: 0, Dst: 3, Payload: big})
	n.Send(&Packet{Src: 1, Dst: 3, Payload: big})
	e.RunAll()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	ser := time.Duration(hw.PacketHeaderBytes+len(big)) * hw.MeshLinkPerByte
	if gap := arrivals[1].Sub(arrivals[0]); gap < ser {
		t.Fatalf("second arrival only %v after first; want >= %v", gap, ser)
	}
}

func TestDisjointPathsDontInterfere(t *testing.T) {
	// 0->1 and 2->3 share nothing in a 2x2 mesh; both should arrive at
	// the uncontended latency.
	e := sim.NewEngine()
	n := NewDims(e, []int{2, 2})
	var t1, t2 sim.Time
	n.Attach(1, func(p *Packet) { t1 = e.Now() })
	n.Attach(3, func(p *Packet) { t2 = e.Now() })
	n.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 256)})
	n.Send(&Packet{Src: 2, Dst: 3, Payload: make([]byte, 256)})
	e.RunAll()
	if t1 != t2 {
		t.Fatalf("disjoint flows interfered: %v vs %v", t1, t2)
	}
}

func TestAttachValidation(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{2, 2})
	n.Attach(0, func(*Packet) {})
	for _, fn := range []func(){
		func() { n.Attach(0, func(*Packet) {}) }, // double attach
		func() { n.Attach(99, func(*Packet) {}) },
		func() { n.Send(&Packet{Src: 0, Dst: 2}) }, // unattached dst
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: random packet storms preserve per-(src,dst) FIFO order on any
// mesh geometry.
func TestOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		x, y := 1+rng.Intn(4), 1+rng.Intn(4)
		n := NewDims(e, []int{x, y})
		type rec struct {
			src NodeID
			seq uint32
		}
		recv := make([][]rec, n.Nodes())
		for i := 0; i < n.Nodes(); i++ {
			i := i
			n.Attach(NodeID(i), func(p *Packet) {
				recv[i] = append(recv[i], rec{p.Src, p.DstOff})
			})
		}
		seqs := make(map[[2]NodeID]uint32)
		for k := 0; k < 200; k++ {
			src := NodeID(rng.Intn(n.Nodes()))
			dst := NodeID(rng.Intn(n.Nodes()))
			size := rng.Intn(2048)
			delay := time.Duration(rng.Intn(5)) * time.Microsecond
			e.Schedule(delay, func() {
				// Stamp the per-pair sequence number at send time:
				// the FIFO guarantee is over send order.
				key := [2]NodeID{src, dst}
				pkt := &Packet{Src: src, Dst: dst, DstOff: seqs[key], Payload: make([]byte, size)}
				seqs[key]++
				n.Send(pkt)
			})
		}
		e.RunAll()
		// Per-pair sequence numbers must arrive monotonically.
		last := make(map[[2]NodeID]int64)
		for dst, rs := range recv {
			for _, r := range rs {
				key := [2]NodeID{r.src, NodeID(dst)}
				prev, ok := last[key]
				if ok && int64(r.seq) <= prev {
					return false
				}
				last[key] = int64(r.seq)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: dimension-order routing never turns from Y back to X — the
// invariant that makes the oblivious routing deadlock-free (Dally/Seitz).
func TestDimensionOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		x, y := 1+rng.Intn(5), 1+rng.Intn(5)
		n := NewDims(e, []int{x, y})
		src := NodeID(rng.Intn(n.Nodes()))
		dst := NodeID(rng.Intn(n.Nodes()))
		path := n.Route(src, dst)
		movedY := false
		for i := 0; i+1 < len(path); i++ {
			cx0, cy0 := path[i]%x, path[i]/x
			cx1, cy1 := path[i+1]%x, path[i+1]/x
			dxs := cx1 != cx0
			dys := cy1 != cy0
			if dxs == dys {
				return false // must move in exactly one dimension per hop
			}
			if dxs && movedY {
				return false // X move after a Y move: illegal turn
			}
			if dys {
				movedY = true
			}
		}
		return path[0] == int(src) && path[len(path)-1] == int(dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionSeversMesh: an armed partition silently eats packets
// crossing the cut — in both directions for a symmetric cut, outbound only
// for a one-way cut — and delivery resumes after Heal.
func TestPartitionSeversMesh(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{2, 2})
	inj := fault.NewInjector(7, fault.Plan{})
	n.SetInjector(inj)
	at3 := collector(n, 3)
	at0 := collector(n, 0)
	send := func(src, dst NodeID) {
		e.Spawn("send", func(p *sim.Proc) { n.Send(&Packet{Src: src, Dst: dst, Payload: []byte("x")}) })
		e.RunAll()
	}
	inj.Sever([]int{0}, false)
	send(0, 3)
	send(3, 0)
	if len(*at3) != 0 || len(*at0) != 0 {
		t.Fatalf("packets crossed a symmetric cut: %d, %d", len(*at3), len(*at0))
	}
	if n.PacketsDropped != 2 || inj.Severed != 2 {
		t.Fatalf("dropped=%d severed=%d, want 2/2", n.PacketsDropped, inj.Severed)
	}
	inj.Sever([]int{0}, true)
	send(0, 3)
	send(3, 0)
	if len(*at3) != 0 {
		t.Fatal("outbound packet crossed a one-way cut")
	}
	if len(*at0) != 1 {
		t.Fatal("inbound packet severed under a one-way cut")
	}
	inj.Heal()
	send(0, 3)
	if len(*at3) != 1 {
		t.Fatal("delivery did not resume after Heal")
	}
}
