package sunrpc

import (
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
	"shrimp/internal/xdr"
)

// TestMultipleClientsOneServer: three clients on three nodes bind to one
// server and interleave calls; the server multiplexes its sessions over the
// per-session streams.
func TestMultipleClientsOneServer(t *testing.T) {
	cl := cluster.Default()
	up := false
	ready := sim.NewCond(cl.Eng)
	finished := 0
	const perClient = 12

	cl.Spawn(3, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(3).Daemon)
		srv := NewServer(ep, cl.Ether, 3, testProgram(t))
		up = true
		ready.Broadcast()
		srv.Serve(3 * perClient)
	})
	for node := 0; node < 3; node++ {
		node := node
		cl.Spawn(node, "client", func(p *kernel.Process) {
			for !up {
				ready.Wait(p.P)
			}
			ep := vmmc.Attach(p, cl.Node(node).Daemon)
			mode := ModeAU
			if node%2 == 1 {
				mode = ModeDU // mixed transfer modes on one server
			}
			c, err := Dial(ep, cl.Ether, 3, progTest, versTest, mode)
			if err != nil {
				t.Error(err)
				return
			}
			for i := uint32(0); i < perClient; i++ {
				var sum uint32
				err := c.Call(procAdd,
					func(e *xdr.Encoder) { e.PutUint32(uint32(node) * 100); e.PutUint32(i) },
					func(d *xdr.Decoder) error {
						var err error
						sum, err = d.Uint32()
						return err
					})
				if err != nil {
					t.Errorf("node %d call %d: %v", node, i, err)
					return
				}
				if sum != uint32(node)*100+i {
					t.Errorf("node %d call %d: sum %d", node, i, sum)
				}
			}
			finished++
		})
	}
	cl.Run()
	if finished != 3 {
		t.Fatalf("only %d/3 clients finished", finished)
	}
}

// TestTwoProgramsOneServer: a server can host multiple (program, version)
// pairs, dispatching by the call header.
func TestTwoProgramsOneServer(t *testing.T) {
	cl := cluster.Default()
	up := false
	ready := sim.NewCond(cl.Eng)
	ok := false
	second := &Program{
		Prog: 0x20000777, Vers: 3,
		Procs: map[uint32]Handler{
			1: func(d *xdr.Decoder, e *xdr.Encoder) error {
				v, err := d.Uint32()
				if err != nil {
					return err
				}
				e.PutUint32(v * 2)
				return nil
			},
		},
	}
	cl.Spawn(1, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(1).Daemon)
		srv := NewServer(ep, cl.Ether, 1, testProgram(t), second)
		up = true
		ready.Broadcast()
		srv.Serve(2)
	})
	cl.Spawn(0, "client", func(p *kernel.Process) {
		for !up {
			ready.Wait(p.P)
		}
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		c1, err := Dial(ep, cl.Ether, 1, progTest, versTest, ModeAU)
		if err != nil {
			t.Error(err)
			return
		}
		c2, err := Dial(ep, cl.Ether, 1, 0x20000777, 3, ModeAU)
		if err != nil {
			t.Error(err)
			return
		}
		var sum uint32
		if err := c1.Call(procAdd,
			func(e *xdr.Encoder) { e.PutUint32(2); e.PutUint32(3) },
			func(d *xdr.Decoder) error { var err error; sum, err = d.Uint32(); return err }); err != nil {
			t.Error(err)
			return
		}
		var dbl uint32
		if err := c2.Call(1,
			func(e *xdr.Encoder) { e.PutUint32(21) },
			func(d *xdr.Decoder) error { var err error; dbl, err = d.Uint32(); return err }); err != nil {
			t.Error(err)
			return
		}
		if sum != 5 || dbl != 42 {
			t.Errorf("sum=%d dbl=%d", sum, dbl)
		}
		ok = true
	})
	cl.Run()
	if !ok {
		t.Fatal("client never finished")
	}
}
