package bench

import (
	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/srpc"
	"shrimp/internal/srpc/srpctest"
	"shrimp/internal/sunrpc"
	"shrimp/internal/vmmc"
)

// Figure 8: round-trip time for a null RPC with a single INOUT argument of
// varying size, comparing the SunRPC-compatible VRPC with the
// non-compatible SHRIMP RPC. Both run their fastest variant — one-copy
// automatic update — as in the paper. The compatible system must ship a
// full SunRPC header each way and explicitly return the INOUT data; the
// specialized system sends data plus a one-word flag (one combined packet
// for small calls) and returns the INOUT data implicitly via automatic
// update as the server's stub writes it.

// SRPCNull measures the specialized system's null-with-INOUT roundtrip
// (microseconds) at the given argument size.
func SRPCNull(size, iters int) float64 {
	r := &run{}
	defer r.close()
	return srpcNull(r, size, iters)
}

func srpcNull(r *run, size, iters int) float64 {
	c := r.cluster(cluster.Config{})
	up := false
	ready := sim.NewCond(c.Eng)
	var start, end sim.Time
	c.Spawn(1, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(1).Daemon)
		ln := srpc.Listen(ep, c.Ether, 1, 600)
		up = true
		ready.Broadcast()
		b, err := ln.Accept()
		if err != nil {
			panic(err)
		}
		srpctest.ServeClock(b, nullServer{}, iters+1)
	})
	c.Spawn(0, "client", func(p *kernel.Process) {
		for !up {
			ready.Wait(p.P)
		}
		ep := vmmc.Attach(p, c.Node(0).Daemon)
		b, err := srpc.Bind(ep, c.Ether, 1, 600, 0)
		if err != nil {
			panic(err)
		}
		cli := &srpctest.ClockClient{B: b}
		arg := make([]byte, size)
		cli.Null(arg) // warm
		start = p.P.Now()
		for i := 0; i < iters; i++ {
			cli.Null(arg)
		}
		end = p.P.Now()
	})
	c.Run()
	return end.Sub(start).Seconds() / float64(iters) * 1e6
}

// nullServer implements srpctest.ClockServer with empty procedures.
type nullServer struct{}

func (nullServer) Now() (uint32, uint32)               { return 0, 0 }
func (nullServer) Adjust(int32, float64) (bool, int64) { return true, 0 }
func (nullServer) Null(*srpc.Ref)                      {}
func (nullServer) Fill(uint32, *srpc.Ref)              {}
func (nullServer) Sum(srpc.View) uint64                { return 0 }

// Fig8 regenerates Figure 8: roundtrip vs INOUT size for both systems.
func Fig8(iters int) *Figure {
	f := &Figure{
		ID:    "fig8",
		Title: "Null RPC roundtrip vs INOUT argument size: compatible vs non-compatible",
		Note:  "paper: 29us vs 9.5us for small arguments (>3x); ~2x for large",
	}
	sizes := []int{0, 4, 16, 64, 128, 256, 512, 768, 1000}
	compat := Series{Label: "compatible"}
	noncompat := Series{Label: "non-compatible"}
	for _, size := range sizes {
		sz := size
		if sz == 0 {
			sz = 4 // VRPC echo needs a word; the paper's 0-size point is the null call
		}
		rt, _ := VRPCPingPong(sunrpc.ModeAU, sz, iters)
		compat.Points = append(compat.Points, Point{Size: size, LatencyUS: rt})
		noncompat.Points = append(noncompat.Points, Point{Size: size, LatencyUS: SRPCNull(size, iters)})
	}
	f.Serie = []Series{compat, noncompat}
	return f
}
