// Package integration runs whole-system tests: all four user-level
// libraries sharing one SHRIMP simultaneously (Figure 1's full software
// stack), cross-traffic interference, and end-to-end teardown.
package integration

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/nx"
	"shrimp/internal/sim"
	"shrimp/internal/socket"
	"shrimp/internal/srpc"
	"shrimp/internal/srpc/srpctest"
	"shrimp/internal/sunrpc"
	"shrimp/internal/vmmc"
	"shrimp/internal/xdr"
)

// TestAllLibrariesConcurrently exercises NX, VRPC, sockets, and SHRIMP RPC
// at the same time on one 4-node machine:
//
//	node 0: NX peer A            + socket client
//	node 1: NX peer B            + socket server
//	node 2: SunRPC server        + SRPC client
//	node 3: SunRPC client        + SRPC server
//
// Everything shares the mesh, the Ethernet, the daemons, and (per node) the
// NIC — the point is that the mappings and protocols do not interfere.
func TestAllLibrariesConcurrently(t *testing.T) {
	c := cluster.Default()
	done := make(map[string]bool)

	const (
		kvProg = 0x20001111
		kvVers = 2
		pEcho  = 1
	)
	echoProg := &sunrpc.Program{
		Prog: kvProg, Vers: kvVers,
		Procs: map[uint32]sunrpc.Handler{
			pEcho: func(d *xdr.Decoder, e *xdr.Encoder) error {
				b, err := d.Opaque(1 << 16)
				if err != nil {
					return err
				}
				e.PutOpaque(b)
				return nil
			},
		},
	}

	rpcUp := false
	srpcUp := false
	ready := sim.NewCond(c.Eng)

	// --- NX pair on nodes 0 and 1 (plus their socket roles) ---
	c.Spawn(0, "nxA+sockC", func(p *kernel.Process) {
		n := nx.New(c, p, 0, 2, nx.Config{})
		lib := socket.New(vmmc.Attach(p, c.Node(0).Daemon), c.Ether, 0, socket.ModeDU1)

		// Socket: connect and stream 64 KB while NX traffic flows.
		conn, err := lib.Connect(1, 7000)
		if err != nil {
			t.Error(err)
			return
		}
		payload := make([]byte, 64<<10)
		rand.New(rand.NewSource(1)).Read(payload)
		buf := p.Alloc(len(payload), 4)
		p.Poke(buf, payload)

		sent := 0
		round := 0
		msg := p.Alloc(4096, 4)
		for sent < len(payload) || round < 20 {
			if sent < len(payload) {
				m, err := conn.Send(buf+kernel.VA(sent), min(8192, len(payload)-sent))
				if err != nil {
					t.Error(err)
					return
				}
				sent += m
			}
			if round < 20 {
				p.Poke(msg, seqPayload(round, 1024))
				n.Csend(10+round, msg, 1024, 1, 0)
				n.Crecv(100+round, msg, 4096)
				if !bytes.Equal(p.Peek(msg, 1024), seqPayload(round+1000, 1024)) {
					t.Errorf("NX echo %d corrupted", round)
				}
				round++
			}
		}
		if err := conn.Close(); err != nil {
			t.Error(err)
		}
		n.Drain()
		done["nxA"] = true
	})
	c.Spawn(1, "nxB+sockS", func(p *kernel.Process) {
		n := nx.New(c, p, 1, 2, nx.Config{})
		lib := socket.New(vmmc.Attach(p, c.Node(1).Daemon), c.Ether, 1, socket.ModeDU1)
		ln := lib.Listen(7000)
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		// Interleave: echo 20 NX messages and drain the 64 KB stream.
		want := make([]byte, 64<<10)
		rand.New(rand.NewSource(1)).Read(want)
		got := p.Alloc(len(want), 4)
		recvd := 0
		msg := p.Alloc(4096, 4)
		for round := 0; round < 20 || recvd < len(want); {
			if round < 20 {
				n.Crecv(10+round, msg, 4096)
				if !bytes.Equal(p.Peek(msg, 1024), seqPayload(round, 1024)) {
					t.Errorf("NX msg %d corrupted", round)
				}
				p.Poke(msg, seqPayload(round+1000, 1024))
				n.Csend(100+round, msg, 1024, 0, 0)
				round++
			}
			if recvd < len(want) {
				m, err := conn.Recv(got+kernel.VA(recvd), 16384)
				if err != nil {
					t.Error(err)
					return
				}
				recvd += m
			}
		}
		if !bytes.Equal(p.Peek(got, len(want)), want) {
			t.Error("socket stream corrupted under cross-traffic")
		}
		n.Drain()
		done["nxB"] = true
	})

	// --- SunRPC on nodes 2 (server) and 3 (client) ---
	c.Spawn(2, "rpcS+srpcC", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(2).Daemon)
		srv := sunrpc.NewServer(ep, c.Ether, 2, echoProg)
		rpcUp = true
		ready.Broadcast()
		srv.Serve(30)

		// Then act as SRPC client against node 3.
		for !srpcUp {
			ready.Wait(p.P)
		}
		b, err := srpc.Bind(ep, c.Ether, 3, 600, 0)
		if err != nil {
			t.Error(err)
			return
		}
		cli := &srpctest.ClockClient{B: b}
		for i := 0; i < 10; i++ {
			view := cli.Null(seqPayload(i, 200))
			if !bytes.Equal(view.Peek(), seqPayload(i, 200)) {
				t.Errorf("SRPC null %d corrupted", i)
			}
		}
		done["srpcC"] = true
	})
	c.Spawn(3, "rpcC+srpcS", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(3).Daemon)
		ln := srpc.Listen(ep, c.Ether, 3, 600)
		srpcUp = true
		ready.Broadcast()

		for !rpcUp {
			ready.Wait(p.P)
		}
		cli, err := sunrpc.Dial(ep, c.Ether, 2, kvProg, kvVers, sunrpc.ModeAU)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 30; i++ {
			arg := seqPayload(i, 300+i*17)
			var got []byte
			err := cli.Call(pEcho,
				func(e *xdr.Encoder) { e.PutOpaque(arg) },
				func(d *xdr.Decoder) error {
					var err error
					got, err = d.Opaque(1 << 16)
					return err
				})
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, arg) {
				t.Errorf("VRPC echo %d corrupted", i)
			}
		}
		done["rpcC"] = true

		// Then serve SRPC for node 2.
		b, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		srpctest.ServeClock(b, passthrough{}, 10)
		done["srpcS"] = true
	})

	c.Run()
	for _, who := range []string{"nxA", "nxB", "rpcC", "srpcC", "srpcS"} {
		if !done[who] {
			t.Fatalf("%s never finished (deadlock under cross-traffic?)", who)
		}
	}
}

type passthrough struct{}

func (passthrough) Now() (uint32, uint32)               { return 0, 0 }
func (passthrough) Adjust(int32, float64) (bool, int64) { return true, 0 }
func (passthrough) Null(*srpc.Ref)                      {}
func (passthrough) Fill(uint32, *srpc.Ref)              {}
func (passthrough) Sum(srpc.View) uint64                { return 0 }

func seqPayload(seed, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(seed))).Read(b)
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestTeardownAndReuse exercises unimport/unexport under live traffic and
// re-establishment of mappings with the same names.
func TestTeardownAndReuse(t *testing.T) {
	c := cluster.Default()
	rounds := 0
	c.Spawn(1, "exporter", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(1).Daemon)
		for round := 0; round < 3; round++ {
			buf := p.MapPages(1, 0)
			exp, err := ep.Export(buf, 1, vmmc.ExportOpts{Name: "cycle"})
			if err != nil {
				t.Error(err)
				return
			}
			p.WaitWord(buf, func(v uint32) bool { return v == uint32(round+1) })
			if err := ep.Unexport(exp); err != nil {
				t.Error(err)
				return
			}
			p.UnmapPages(buf, 1)
			rounds++
		}
	})
	c.Spawn(0, "importer", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(0).Daemon)
		src := p.Alloc(4, 4)
		for round := 0; round < 3; round++ {
			var imp *vmmc.Import
			for {
				var err error
				imp, err = ep.Import(1, "cycle")
				if err == nil {
					break
				}
				p.P.Sleep(300 * time.Microsecond)
			}
			p.WriteWord(src, uint32(round+1))
			if err := ep.Send(imp, 0, src, 4); err != nil {
				t.Error(err)
				return
			}
			if err := ep.Unimport(imp); err != nil {
				t.Error(err)
				return
			}
			// Give the exporter time to tear down before re-importing.
			p.P.Sleep(5 * time.Millisecond)
		}
	})
	c.Run()
	if rounds != 3 {
		t.Fatalf("completed %d/3 export-import-teardown cycles", rounds)
	}
	if c.Node(1).Daemon.Exports() != 0 || c.Node(0).Daemon.Imports() != 0 {
		t.Fatal("mapping records leaked across cycles")
	}
}

// TestManyPairsInterference: every ordered pair of the 4 nodes streams
// deliberate updates at once; all payloads must arrive intact (the mesh,
// NICs, and memory systems shared by 12 concurrent flows).
func TestManyPairsInterference(t *testing.T) {
	c := cluster.Default()
	const per = 8 // messages per ordered pair
	finished := 0
	for node := 0; node < 4; node++ {
		node := node
		c.Spawn(node, "pairs", func(p *kernel.Process) {
			ep := vmmc.Attach(p, c.Node(node).Daemon)
			recv := p.MapPages(3, 0) // one page per possible sender
			if _, err := ep.Export(recv, 3, vmmc.ExportOpts{Name: "p"}); err != nil {
				t.Error(err)
				return
			}
			var imps [4]*vmmc.Import
			for peer := 0; peer < 4; peer++ {
				if peer == node {
					continue
				}
				for {
					imp, err := ep.Import(peer, "p")
					if err == nil {
						imps[peer] = imp
						break
					}
					p.P.Sleep(200 * time.Microsecond)
				}
			}
			// Each sender writes into the page indexed by its rank at
			// the receiver (senders sorted, skipping the receiver). The
			// receiver acknowledges each round before the slot may be
			// reused — the credit discipline every library implements.
			src := p.Alloc(1024+8, 4)
			ackSrc := p.Alloc(4, 4)
			for k := 0; k < per; k++ {
				for peer := 0; peer < 4; peer++ {
					if peer == node {
						continue
					}
					pg := rankAmong(node, peer)
					if k > 0 {
						// Wait for the peer's ack of round k-1 before
						// overwriting the slot.
						ackVA := recv + kernel.VA(rankAmong(peer, node)*hw.Page+hw.Page-8)
						p.WaitWord(ackVA, func(v uint32) bool { return v >= uint32(k) })
					}
					data := seqPayload(node*1000+peer*100+k, 1024)
					p.Poke(src, data)
					if err := ep.Send(imps[peer], pg*hw.Page, src, 1024); err != nil {
						t.Error(err)
						return
					}
					flag := p.Alloc(4, 4)
					p.WriteWord(flag, uint32(k+1))
					if err := ep.Send(imps[peer], pg*hw.Page+hw.Page-4, flag, 4); err != nil {
						t.Error(err)
						return
					}
				}
				// Wait for round k from every peer, verify, and ack.
				for peer := 0; peer < 4; peer++ {
					if peer == node {
						continue
					}
					pg := rankAmong(peer, node)
					p.WaitWord(recv+kernel.VA(pg*hw.Page+hw.Page-4),
						func(v uint32) bool { return v >= uint32(k+1) })
					want := seqPayload(peer*1000+node*100+k, 1024)
					if !bytes.Equal(p.Peek(recv+kernel.VA(pg*hw.Page), 1024), want) {
						t.Errorf("node %d: round %d from %d corrupted", node, k, peer)
					}
					p.WriteWord(ackSrc, uint32(k+1))
					if err := ep.Send(imps[peer], rankAmong(node, peer)*hw.Page+hw.Page-8, ackSrc, 4); err != nil {
						t.Error(err)
						return
					}
				}
			}
			finished++
		})
	}
	c.Run()
	if finished != 4 {
		t.Fatalf("finished %d/4", finished)
	}
}

// rankAmong returns the index of `sender` among the three senders a
// receiver `recv` sees (senders in increasing node order, receiver
// excluded).
func rankAmong(sender, recv int) int {
	r := 0
	for n := 0; n < 4; n++ {
		if n == recv {
			continue
		}
		if n == sender {
			return r
		}
		r++
	}
	panic("sender == recv")
}
