package mesh

import (
	"fmt"
	"slices"
	"testing"

	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// For every (src, dst) pair, transmit must reserve exactly the inject
// channel, the links along Route(src, dst) in order, then the eject
// channel: the inline walk over the hop table and Route agree.
func TestHopWalkMatchesRoute(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {4, 4, 4}, {3, 5, 2}} {
		t.Run(fmt.Sprint(dims), func(t *testing.T) {
			e := sim.NewEngine()
			n := NewDims(e, dims)
			tc := trace.New()
			n.Trace = tc
			for i := 0; i < n.Nodes(); i++ {
				n.Attach(NodeID(i), func(*Packet) {})
			}
			var got, want []string
			for s := 0; s < n.Nodes(); s++ {
				for d := 0; d < n.Nodes(); d++ {
					src, dst := NodeID(s), NodeID(d)
					before := len(tc.Spans())
					n.Send(&Packet{Src: src, Dst: dst})
					got = got[:0]
					for _, sp := range tc.Spans()[before:] {
						got = append(got, sp.Name)
					}
					want = append(want[:0], fmt.Sprintf("inject.%d", s))
					path := n.Route(src, dst)
					for i := 0; i+1 < len(path); i++ {
						want = append(want, fmt.Sprintf("link.%d>%d", path[i], path[i+1]))
					}
					want = append(want, fmt.Sprintf("eject.%d", d))
					if !slices.Equal(got, want) {
						t.Fatalf("%d -> %d reserved %v, want %v", s, d, got, want)
					}
				}
				e.RunAll()
			}
		})
	}
}

// Once warm, a pooled packet crossing the mesh allocates nothing: the
// header, payload and delivery record all come back through the pools, and
// the hop walk builds no path.
func TestTransmitAllocFree(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{4, 4})
	delivered := 0
	recv := func(p *Packet) {
		delivered++
		n.Recycle(p)
	}
	for i := 0; i < n.Nodes(); i++ {
		n.Attach(NodeID(i), recv)
	}
	payload := make([]byte, 256)
	send := func() {
		pkt := n.GetPacket()
		pkt.Src, pkt.Dst = 0, 15
		pkt.Payload = append(n.GetBuf(), payload...)
		pkt.Pooled = true
		n.Send(pkt)
		e.RunAll()
	}
	send() // warm the hop table, the pools and the per-pair maps
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("%v allocs per packet, want 0", allocs)
	}
	if delivered != 102 {
		t.Fatalf("%d packets delivered, want 102", delivered)
	}
}

// BenchmarkTransmit times one pooled 256-byte packet corner to corner
// across a 4x4x4 mesh (nine links), from Send to the handler.
func BenchmarkTransmit(b *testing.B) {
	e := sim.NewEngine()
	n := NewDims(e, []int{4, 4, 4})
	recv := func(p *Packet) { n.Recycle(p) }
	for i := 0; i < n.Nodes(); i++ {
		n.Attach(NodeID(i), recv)
	}
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkt := n.GetPacket()
		pkt.Src, pkt.Dst = 0, NodeID(n.Nodes()-1)
		pkt.Payload = append(n.GetBuf(), payload...)
		pkt.Pooled = true
		n.Send(pkt)
		e.RunAll()
	}
}
