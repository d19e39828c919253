package socket

import (
	"bytes"
	"math/rand"
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/vmmc"
)

// rig runs a server body (accepting one connection on port 5000, node 1)
// and a client body (connected, node 0).
func rig(t *testing.T, mode Mode, server func(c *Conn, p *kernel.Process), client func(c *Conn, p *kernel.Process)) {
	t.Helper()
	cl := cluster.Default()
	finished := 0
	cl.Spawn(1, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(1).Daemon)
		lib := New(ep, cl.Ether, 1, mode)
		ln := lib.Listen(5000)
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		server(conn, p)
		finished++
	})
	cl.Spawn(0, "client", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		lib := New(ep, cl.Ether, 0, mode)
		conn, err := lib.Connect(1, 5000)
		if err != nil {
			t.Error(err)
			return
		}
		client(conn, p)
		finished++
	})
	cl.Run()
	if finished != 2 {
		t.Fatalf("only %d/2 processes finished (deadlock?)", finished)
	}
}

func allModes() []Mode { return []Mode{ModeAU2, ModeDU1, ModeDU2} }

func TestEchoAllModes(t *testing.T) {
	for _, mode := range allModes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			msg := []byte("stream sockets on SHRIMP")
			rig(t, mode,
				func(c *Conn, p *kernel.Process) {
					buf := p.Alloc(100, 4)
					n, err := c.RecvAll(buf, len(msg))
					if err != nil || n != len(msg) {
						t.Errorf("recv %d %v", n, err)
						return
					}
					if _, err := c.Send(buf, n); err != nil {
						t.Error(err)
					}
				},
				func(c *Conn, p *kernel.Process) {
					src := p.Alloc(100, 4)
					p.Poke(src, msg)
					if _, err := c.Send(src, len(msg)); err != nil {
						t.Error(err)
						return
					}
					dst := p.Alloc(100, 4)
					n, err := c.RecvAll(dst, len(msg))
					if err != nil || n != len(msg) {
						t.Errorf("recv %d %v", n, err)
						return
					}
					if !bytes.Equal(p.Peek(dst, n), msg) {
						t.Error("echo corrupted")
					}
				})
		})
	}
}

func TestByteStreamNoBoundaries(t *testing.T) {
	// Two sends must be readable as one receive (and vice versa): it is
	// a byte stream, not a message stream.
	rig(t, ModeAU2,
		func(c *Conn, p *kernel.Process) {
			buf := p.Alloc(64, 4)
			p.Poke(buf, []byte("abcdefgh"))
			if _, err := c.Send(buf, 4); err != nil {
				t.Error(err)
			}
			if _, err := c.Send(buf+4, 4); err != nil {
				t.Error(err)
			}
			if err := c.Close(); err != nil {
				t.Error(err)
			}
		},
		func(c *Conn, p *kernel.Process) {
			dst := p.Alloc(64, 4)
			n, err := c.RecvAll(dst, 8)
			if err != nil || n != 8 {
				t.Errorf("recv %d %v", n, err)
				return
			}
			if string(p.Peek(dst, 8)) != "abcdefgh" {
				t.Error("coalesced stream corrupted")
			}
		})
}

func TestUnalignedTraffic(t *testing.T) {
	// Odd-sized sends from odd-aligned buffers: the DU modes must fall
	// back to staging without corrupting the stream.
	for _, mode := range allModes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			total := 0
			var sizes []int
			for total < 20000 {
				n := 1 + rng.Intn(777)
				sizes = append(sizes, n)
				total += n
			}
			want := make([]byte, total)
			rand.New(rand.NewSource(99)).Read(want)
			rig(t, mode,
				func(c *Conn, p *kernel.Process) {
					raw := p.Alloc(total+16, 4)
					src := raw + 1 // misaligned base
					p.Poke(src, want)
					off := 0
					for _, n := range sizes {
						if _, err := c.Send(src+kernel.VA(off), n); err != nil {
							t.Error(err)
							return
						}
						off += n
					}
					if err := c.Close(); err != nil {
						t.Error(err)
					}
				},
				func(c *Conn, p *kernel.Process) {
					raw := p.Alloc(total+16, 4)
					dst := raw + 3 // misaligned receive buffer
					n, err := c.RecvAll(dst, total)
					if err != nil || n != total {
						t.Errorf("recv %d/%d %v", n, total, err)
						return
					}
					if !bytes.Equal(p.Peek(dst, total), want) {
						t.Error("unaligned stream corrupted")
					}
				})
		})
	}
}

func TestRingWrapLargeTransfer(t *testing.T) {
	// Push several ring-fuls through: flow control and wraparound.
	const total = 5 * ringBytes
	want := make([]byte, total)
	rand.New(rand.NewSource(12)).Read(want)
	rig(t, ModeDU1,
		func(c *Conn, p *kernel.Process) {
			src := p.Alloc(total, 4)
			p.Poke(src, want)
			sent := 0
			for sent < total {
				n, err := c.Send(src+kernel.VA(sent), total-sent)
				if err != nil {
					t.Error(err)
					return
				}
				sent += n
			}
			if err := c.Close(); err != nil {
				t.Error(err)
			}
		},
		func(c *Conn, p *kernel.Process) {
			dst := p.Alloc(total, 4)
			n, err := c.RecvAll(dst, total)
			if err != nil || n != total {
				t.Errorf("recv %d %v", n, err)
				return
			}
			if !bytes.Equal(p.Peek(dst, total), want) {
				t.Error("large transfer corrupted")
			}
		})
}

func TestEOFSemantics(t *testing.T) {
	rig(t, ModeAU2,
		func(c *Conn, p *kernel.Process) {
			buf := p.Alloc(16, 4)
			p.Poke(buf, []byte("bye!"))
			if _, err := c.Send(buf, 4); err != nil {
				t.Error(err)
			}
			if err := c.Close(); err != nil {
				t.Error(err)
			}
			// Send after close fails.
			if _, err := c.Send(buf, 4); err != ErrClosed {
				t.Errorf("send after close: %v", err)
			}
		},
		func(c *Conn, p *kernel.Process) {
			dst := p.Alloc(16, 4)
			if n, err := c.RecvAll(dst, 4); n != 4 || err != nil {
				t.Errorf("payload before EOF: %d, %v", n, err)
			}
			// Next reads return 0 (clean EOF), repeatedly.
			for i := 0; i < 2; i++ {
				n, err := c.Recv(dst, 4)
				if n != 0 || err != nil {
					t.Errorf("EOF read %d: n=%d err=%v", i, n, err)
				}
			}
		})
}

func TestBidirectionalSimultaneous(t *testing.T) {
	// Full-duplex: both sides stream concurrently.
	const total = 40000
	mk := func(seed int64) []byte {
		b := make([]byte, total)
		rand.New(rand.NewSource(seed)).Read(b)
		return b
	}
	side := func(sendSeed, wantSeed int64) func(c *Conn, p *kernel.Process) {
		return func(c *Conn, p *kernel.Process) {
			out := mk(sendSeed)
			src := p.Alloc(total, 4)
			p.Poke(src, out)
			dst := p.Alloc(total, 4)
			sent, got := 0, 0
			for sent < total || got < total {
				if sent < total {
					n := total - sent
					if n > 4096 {
						n = 4096
					}
					m, err := c.Send(src+kernel.VA(sent), n)
					if err != nil {
						t.Error(err)
						return
					}
					sent += m
				}
				if got < total {
					m, err := c.Recv(dst+kernel.VA(got), 4096)
					if err != nil {
						t.Error(err)
						return
					}
					got += m
				}
			}
			if !bytes.Equal(p.Peek(dst, total), mk(wantSeed)) {
				t.Error("full-duplex stream corrupted")
			}
		}
	}
	rig(t, ModeAU2, side(111, 222), side(222, 111))
}

func TestConnectToNobody(t *testing.T) {
	// Nothing listens on node 2 port 7: the connect datagram is dropped
	// and the establishment deadline turns it into a refused connection.
	cl := cluster.Default()
	done := false
	cl.Spawn(0, "client", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		lib := New(ep, cl.Ether, 0, ModeAU2)
		t0 := p.P.Now()
		if _, err := lib.Connect(2, 7); err == nil || err.Error() != "socket: connect to 2:7 refused or timed out" {
			t.Errorf("connect to an unbound port: error %v, want the refusal", err)
		}
		if waited := p.P.Now().Sub(t0); waited > 200*1000*1000 {
			t.Errorf("connect hung for %v", waited)
		}
		done = true
	})
	cl.Run()
	if !done {
		t.Fatal("client never returned from refused connect")
	}
}

func TestPartialWordBoundaryAcrossSends(t *testing.T) {
	// Regression for the carried-tail logic: byte-at-a-time sends in DU
	// mode exercise the partial-word path heavily.
	const total = 257
	want := make([]byte, total)
	rand.New(rand.NewSource(3)).Read(want)
	rig(t, ModeDU2,
		func(c *Conn, p *kernel.Process) {
			src := p.Alloc(total+8, 4)
			p.Poke(src, want)
			for i := 0; i < total; i++ {
				if _, err := c.Send(src+kernel.VA(i), 1); err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.Close(); err != nil {
				t.Error(err)
			}
		},
		func(c *Conn, p *kernel.Process) {
			dst := p.Alloc(total+8, 4)
			n, err := c.RecvAll(dst, total)
			if err != nil || n != total {
				t.Errorf("recv %d %v", n, err)
				return
			}
			if !bytes.Equal(p.Peek(dst, total), want) {
				t.Error("byte-at-a-time stream corrupted")
			}
		})
}

func TestSmallMessageLatencyBudget(t *testing.T) {
	// Paper: "for small messages, we incur a latency of 13us above the
	// hardware limit" (hw AU 1-word = 4.75us, so ~17.75 one-way).
	var oneWay float64
	rig(t, ModeAU2,
		func(c *Conn, p *kernel.Process) {
			buf := p.Alloc(8, 4)
			for i := 0; i < 9; i++ {
				if _, err := c.RecvAll(buf, 4); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Send(buf, 4); err != nil {
					t.Error(err)
					return
				}
			}
		},
		func(c *Conn, p *kernel.Process) {
			buf := p.Alloc(8, 4)
			// Warm-up round trip; a silent failure would turn the measured
			// loop into a timeout measurement.
			if _, err := c.Send(buf, 4); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.RecvAll(buf, 4); err != nil {
				t.Error(err)
				return
			}
			t0 := p.P.Now()
			const iters = 8
			for i := 0; i < iters; i++ {
				if _, err := c.Send(buf, 4); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.RecvAll(buf, 4); err != nil {
					t.Error(err)
					return
				}
			}
			oneWay = p.P.Now().Sub(t0).Seconds() * 1e6 / (2 * iters)
		})
	if oneWay < 14 || oneWay > 21 {
		t.Fatalf("socket 4B one-way latency %.2f us, paper ~17.75 (4.75+13)", oneWay)
	}
	t.Logf("socket 4B one-way latency: %.2f us (paper ~17.75)", oneWay)
}

func TestSizeConstantsSane(t *testing.T) {
	if ringPages*hw.Page < regionSize {
		t.Fatal("region does not fit its pages")
	}
}
