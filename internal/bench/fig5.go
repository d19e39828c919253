package bench

import (
	"fmt"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/sunrpc"
	"shrimp/internal/vmmc"
	"shrimp/internal/xdr"
)

// Figure 5: VRPC latency and bandwidth, measured with a null RPC carrying a
// single opaque argument and a single opaque result of equal size (the
// paper: "varying the size of a single argument and a single result,
// starting with a 4-byte argument and a 4-byte result"). Variants: DU-1copy
// and AU-1copy. Reported latency is the ROUND-TRIP time, as in the paper's
// left-hand graph; bandwidth counts argument+result bytes over total time.

const (
	fig5Prog = 0x20000055
	fig5Vers = 1
	fig5Echo = 1
)

func fig5Program() *sunrpc.Program {
	return &sunrpc.Program{
		Prog: fig5Prog,
		Vers: fig5Vers,
		Procs: map[uint32]sunrpc.Handler{
			fig5Echo: func(d *xdr.Decoder, e *xdr.Encoder) error {
				b, err := d.Opaque(1 << 20)
				if err != nil {
					return err
				}
				e.PutOpaque(b)
				return nil
			},
		},
	}
}

// VRPCPingPong measures `iters` echo calls of the given argument/result
// size and returns (roundtrip latency us, bandwidth MB/s).
func VRPCPingPong(mode sunrpc.Mode, size, iters int) (float64, float64) {
	r := &run{}
	defer r.close()
	return vrpcPingPong(r, mode, size, iters)
}

func vrpcPingPong(r *run, mode sunrpc.Mode, size, iters int) (float64, float64) {
	c := r.cluster(cluster.Config{})
	up := false
	ready := sim.NewCond(c.Eng)
	var start, end sim.Time
	c.Spawn(1, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(1).Daemon)
		srv := sunrpc.NewServer(ep, c.Ether, 1, fig5Program())
		up = true
		ready.Broadcast()
		srv.Serve(int64(iters) + 1)
	})
	c.Spawn(0, "client", func(p *kernel.Process) {
		for !up {
			ready.Wait(p.P)
		}
		ep := vmmc.Attach(p, c.Node(0).Daemon)
		cli, err := sunrpc.Dial(ep, c.Ether, 1, fig5Prog, fig5Vers, mode)
		if err != nil {
			panic(err)
		}
		arg := make([]byte, size)
		for i := range arg {
			arg[i] = byte(i)
		}
		echo := func() {
			err := cli.Call(fig5Echo,
				func(e *xdr.Encoder) { e.PutOpaque(arg) },
				func(d *xdr.Decoder) error {
					got, err := d.Opaque(1 << 20)
					if err != nil {
						return err
					}
					if len(got) != size {
						return fmt.Errorf("echo size %d", len(got))
					}
					return nil
				})
			if err != nil {
				panic(err)
			}
		}
		echo() // warm-up
		start = p.P.Now()
		for i := 0; i < iters; i++ {
			echo()
		}
		end = p.P.Now()
	})
	c.Run()
	total := end.Sub(start).Seconds()
	rt := total / float64(iters) * 1e6
	bw := float64(2*iters*size) / total / 1e6
	return rt, bw
}

// Fig5 regenerates Figure 5.
func Fig5(iters int) *Figure {
	f := &Figure{
		ID:    "fig5",
		Title: "VRPC latency (roundtrip) and bandwidth",
		Note:  "paper: null RPC ~29us roundtrip; latency here is ROUNDTRIP, per the paper's figure",
	}
	for _, mode := range []sunrpc.Mode{sunrpc.ModeDU, sunrpc.ModeAU} {
		s := Series{Label: mode.String()}
		for _, size := range AllSizes() {
			rt, bw := VRPCPingPong(mode, size, iters)
			s.Points = append(s.Points, Point{Size: size, LatencyUS: rt, MBPerSec: bw})
		}
		f.Serie = append(f.Serie, s)
	}
	return f
}

// RPCBaseline compares the null-RPC roundtrip over SBL (AU) with the
// conventional-network (Ethernet/UDP) implementation — the basis of the
// paper's "several times faster than conventional networks" claim.
type RPCBaseline struct {
	SBLNullUS   float64
	EtherNullUS float64
	Speedup     float64
}

// RunRPCBaseline measures both null-RPC roundtrips.
func RunRPCBaseline() RPCBaseline {
	var r RPCBaseline
	r.SBLNullUS, _ = VRPCPingPong(sunrpc.ModeAU, 4, 12)

	w := &run{}
	defer w.close()
	c := w.cluster(cluster.Config{})
	up := false
	ready := sim.NewCond(c.Eng)
	var start, end sim.Time
	const iters = 8
	c.Spawn(1, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(1).Daemon)
		srv := sunrpc.NewEtherServer(ep, c.Ether, 1, fig5Program())
		up = true
		ready.Broadcast()
		srv.Serve(iters + 1)
	})
	c.Spawn(0, "client", func(p *kernel.Process) {
		for !up {
			ready.Wait(p.P)
		}
		ep := vmmc.Attach(p, c.Node(0).Daemon)
		cli, err := sunrpc.DialEther(ep, c.Ether, 1, fig5Prog, fig5Vers)
		if err != nil {
			panic(err)
		}
		call := func() {
			if err := cli.Call(fig5Echo,
				func(e *xdr.Encoder) { e.PutOpaque([]byte{1, 2, 3, 4}) },
				func(d *xdr.Decoder) error { _, err := d.Opaque(64); return err }); err != nil {
				panic(err)
			}
		}
		call()
		start = p.P.Now()
		for i := 0; i < iters; i++ {
			call()
		}
		end = p.P.Now()
	})
	c.Run()
	r.EtherNullUS = end.Sub(start).Seconds() / iters * 1e6
	r.Speedup = r.EtherNullUS / r.SBLNullUS
	return r
}
