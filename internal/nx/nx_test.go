package nx

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
)

// run spawns one NX process per body on consecutive nodes of a fresh 4-node
// cluster and runs the simulation to completion.
func run(t *testing.T, cfg Config, bodies ...func(nx *NX, p *kernel.Process)) {
	t.Helper()
	c := cluster.Default()
	finished := 0
	for i, body := range bodies {
		i, body := i, body
		c.Spawn(i, "app", func(p *kernel.Process) {
			nx := New(c, p, i, len(bodies), cfg)
			body(nx, p)
			nx.Drain()
			finished++
		})
	}
	c.Run()
	if finished != len(bodies) {
		t.Fatalf("only %d/%d processes finished (deadlock?)", finished, len(bodies))
	}
}

func fill(p *kernel.Process, n int, seed int64) kernel.VA {
	va := p.Alloc(n+8, hw.WordSize)
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	p.Poke(va, data)
	return va
}

func check(t *testing.T, p *kernel.Process, va kernel.VA, n int, seed int64) {
	t.Helper()
	want := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(want)
	if got := p.Peek(va, n); !bytes.Equal(got, want) {
		t.Errorf("payload corrupted (%d bytes)", n)
	}
}

func TestSmallMessageRoundtrip(t *testing.T) {
	run(t, Config{},
		func(nx *NX, p *kernel.Process) {
			src := fill(p, 100, 1)
			nx.Csend(7, src, 100, 1, 0)
			dst := p.Alloc(100, 4)
			n := nx.Crecv(8, dst, 100)
			if n != 100 {
				t.Errorf("reply length %d", n)
			}
			check(t, p, dst, 100, 2)
		},
		func(nx *NX, p *kernel.Process) {
			dst := p.Alloc(100, 4)
			n := nx.Crecv(7, dst, 100)
			if n != 100 {
				t.Errorf("recv length %d", n)
			}
			check(t, p, dst, 100, 1)
			if nx.Infotype() != 7 || nx.Infonode() != 0 || nx.Infocount() != 100 {
				t.Errorf("info: type=%d node=%d count=%d", nx.Infotype(), nx.Infonode(), nx.Infocount())
			}
			src := fill(p, 100, 2)
			nx.Csend(8, src, 100, 0, 0)
		})
}

func TestTypeSelection(t *testing.T) {
	// Receiver consumes messages out of order by type — the reason NX
	// needs per-buffer credits.
	run(t, Config{},
		func(nx *NX, p *kernel.Process) {
			a := fill(p, 64, 10)
			b := fill(p, 64, 11)
			c := fill(p, 64, 12)
			nx.Csend(1, a, 64, 1, 0)
			nx.Csend(2, b, 64, 1, 0)
			nx.Csend(3, c, 64, 1, 0)
		},
		func(nx *NX, p *kernel.Process) {
			dst := p.Alloc(64, 4)
			nx.Crecv(3, dst, 64) // out of arrival order
			check(t, p, dst, 64, 12)
			nx.Crecv(1, dst, 64)
			check(t, p, dst, 64, 10)
			nx.Crecv(2, dst, 64)
			check(t, p, dst, 64, 11)
		})
}

func TestTypeAnyFIFO(t *testing.T) {
	run(t, Config{},
		func(nx *NX, p *kernel.Process) {
			for i := 0; i < 5; i++ {
				src := fill(p, 32, int64(100+i))
				nx.Csend(50+i, src, 32, 1, 0)
			}
		},
		func(nx *NX, p *kernel.Process) {
			dst := p.Alloc(32, 4)
			for i := 0; i < 5; i++ {
				nx.Crecv(TypeAny, dst, 32)
				if nx.Infotype() != 50+i {
					t.Errorf("TypeAny order: got type %d want %d", nx.Infotype(), 50+i)
				}
				check(t, p, dst, 32, int64(100+i))
			}
		})
}

func TestLargeMessageZeroCopy(t *testing.T) {
	const n = 40000 // ~10 pages: forces the scout/zero-copy protocol
	run(t, Config{},
		func(nx *NX, p *kernel.Process) {
			src := fill(p, n, 21)
			nx.Csend(9, src, n, 1, 0)
		},
		func(nx *NX, p *kernel.Process) {
			dst := p.Alloc(n, hw.Page) // page-aligned user buffer
			got := nx.Crecv(9, dst, n)
			if got != n {
				t.Fatalf("received %d", got)
			}
			check(t, p, dst, n, 21)
		})
}

func TestLargeMessageMisalignedFallsBack(t *testing.T) {
	const n = 8192
	run(t, Config{},
		func(nx *NX, p *kernel.Process) {
			src := fill(p, n, 22)
			nx.Csend(9, src, n, 1, 0)
		},
		func(nx *NX, p *kernel.Process) {
			raw := p.Alloc(n+1, 4)
			dst := raw + 1 // deliberately misaligned: no zero-copy allowed
			got := nx.Crecv(9, dst, n)
			if got != n {
				t.Fatalf("received %d", got)
			}
			check(t, p, dst, n, 22)
		})
}

// TestIsendMisalignedSource sends a zero-copy-sized message with Isend
// from a source that is not word-aligned. Deliberate update needs an
// aligned source, and an Isend has no backup buffer to copy through.
func TestIsendMisalignedSource(t *testing.T) {
	const n = 4096
	run(t, Config{},
		func(nx *NX, p *kernel.Process) {
			raw := fill(p, n+1, 24)
			nx.Msgwait(nx.Isend(6, raw+1, n, 1, 0))
		},
		func(nx *NX, p *kernel.Process) {
			dst := p.Alloc(n, hw.Page)
			if got := nx.Crecv(6, dst, n); got != n {
				t.Fatalf("received %d", got)
			}
			want := make([]byte, n+1)
			rand.New(rand.NewSource(24)).Read(want)
			if got := p.Peek(dst, n); !bytes.Equal(got, want[1:]) {
				t.Error("misaligned Isend payload corrupted")
			}
		})
}

func TestMisalignedSourceSmall(t *testing.T) {
	run(t, Config{Force: ProtoDU1},
		func(nx *NX, p *kernel.Process) {
			raw := fill(p, 129, 23)
			nx.Csend(5, raw+1, 100, 1, 0) // misaligned source
		},
		func(nx *NX, p *kernel.Process) {
			dst := p.Alloc(100, 4)
			nx.Crecv(5, dst, 100)
			want := make([]byte, 129)
			rand.New(rand.NewSource(23)).Read(want)
			if got := p.Peek(dst, 100); !bytes.Equal(got, want[1:101]) {
				t.Error("misaligned-source payload corrupted")
			}
		})
}

func TestMultiChunkThroughBuffers(t *testing.T) {
	// Force the buffered path for a message larger than one packet
	// buffer: it must chunk and reassemble.
	const n = 3*PayloadMax + 777
	for _, proto := range []Proto{ProtoAU2, ProtoDU1, ProtoDU2} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			run(t, Config{Force: proto},
				func(nx *NX, p *kernel.Process) {
					src := fill(p, n, 31)
					nx.Csend(4, src, n, 1, 0)
				},
				func(nx *NX, p *kernel.Process) {
					dst := p.Alloc(n, 4)
					if got := nx.Crecv(4, dst, n); got != n {
						t.Fatalf("received %d of %d", got, n)
					}
					check(t, p, dst, n, 31)
				})
		})
	}
}

func TestAllVariantsAllSizes(t *testing.T) {
	for _, proto := range []Proto{ProtoAU1, ProtoAU2, ProtoDU0, ProtoDU1, ProtoDU2} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			sizes := []int{0, 4, 64, 1000, 2048, 2049, 10240}
			run(t, Config{Force: proto},
				func(nx *NX, p *kernel.Process) {
					for i, n := range sizes {
						src := fill(p, n+4, int64(40+i))
						nx.Csend(10+i, src, n, 1, 0)
						// Await an ack so sizes don't pile up.
						ack := p.Alloc(4, 4)
						nx.Crecv(100+i, ack, 4)
					}
				},
				func(nx *NX, p *kernel.Process) {
					for i, n := range sizes {
						dst := p.Alloc(n+8, hw.Page)
						got := nx.Crecv(10+i, dst, n)
						if got != n {
							t.Fatalf("%s size %d: received %d", proto, n, got)
						}
						want := make([]byte, n+4)
						rand.New(rand.NewSource(int64(40 + i))).Read(want)
						if !bytes.Equal(p.Peek(dst, n), want[:n]) {
							t.Fatalf("%s size %d: corrupted", proto, n)
						}
						ack := p.Alloc(4, 4)
						nx.Csend(100+i, ack, 4, 0, 0)
					}
				})
		})
	}
}

func TestCreditExhaustionAndDoorbell(t *testing.T) {
	// Fire more messages than packet buffers before the receiver starts
	// consuming: the sender must block on credits, ring the doorbell, and
	// proceed once the receiver consumes.
	const msgs = NumPkt * 3
	run(t, Config{Force: ProtoAU2},
		func(nx *NX, p *kernel.Process) {
			src := fill(p, 64, 50)
			for i := 0; i < msgs; i++ {
				nx.Csend(1, src, 64, 1, 0)
			}
		},
		func(nx *NX, p *kernel.Process) {
			// Delay before consuming so the sender hits the wall.
			p.Compute(2 * 1000 * 1000) // 2ms of "computation"
			dst := p.Alloc(64, 4)
			for i := 0; i < msgs; i++ {
				if got := nx.Crecv(1, dst, 64); got != 64 {
					t.Fatalf("msg %d: %d bytes", i, got)
				}
			}
		})
}

func TestProbe(t *testing.T) {
	run(t, Config{},
		func(nx *NX, p *kernel.Process) {
			src := fill(p, 48, 60)
			nx.Csend(33, src, 48, 1, 0)
		},
		func(nx *NX, p *kernel.Process) {
			if nx.Iprobe(99) {
				t.Error("iprobe matched nothing")
			}
			nx.Cprobe(33)
			if nx.Infocount() != 48 || nx.Infonode() != 0 {
				t.Errorf("probe info: count=%d node=%d", nx.Infocount(), nx.Infonode())
			}
			// Probe must not consume.
			dst := p.Alloc(48, 4)
			if got := nx.Crecv(33, dst, 48); got != 48 {
				t.Error("message vanished after probe")
			}
			// Nor a self-addressed one.
			self := fill(p, 40, 61)
			nx.Csend(34, self, 40, 1, 0)
			if !nx.Iprobe(34) || !nx.Iprobe(34) {
				t.Error("iprobe consumed a self message")
			}
			nx.Cprobe(34)
			if nx.Infocount() != 40 || nx.Infonode() != 1 {
				t.Errorf("self probe info: count=%d node=%d", nx.Infocount(), nx.Infonode())
			}
			if got := nx.Crecv(34, dst, 40); got != 40 {
				t.Fatalf("self message vanished after probe: got %d", got)
			}
			check(t, p, dst, 40, 61)
		})
}

func TestCorruptDescriptorIgnored(t *testing.T) {
	// The peer writes the descriptor; a size word past PayloadMax would
	// put the done word outside the region.
	run(t, Config{},
		func(nx *NX, p *kernel.Process) {
			p.Poke(nx.conns[1].in+kernel.VA(pktOff(0)), []byte{0xff, 0xff, 0xff, 0x7f})
			if nx.Iprobe(TypeAny) {
				t.Error("iprobe matched a corrupt descriptor")
			}
		},
		func(nx *NX, p *kernel.Process) {})
}

func TestCrecvParksBesideOtherSelfType(t *testing.T) {
	// A pending self message of another type must leave a blocked Crecv
	// parked until its own message lands, not polling every
	// PollCheckCost through a 5 ms wait.
	events := func(self bool) int64 {
		c := cluster.Default()
		got := 0
		c.Spawn(0, "app", func(p *kernel.Process) {
			nx := New(c, p, 0, 2, Config{})
			if self {
				nx.Csend(5, fill(p, 16, 1), 16, 0, 0)
			}
			got = nx.Crecv(6, p.Alloc(16, 4), 16)
			nx.Drain()
		})
		c.Spawn(1, "app", func(p *kernel.Process) {
			nx := New(c, p, 1, 2, Config{})
			p.Compute(5 * time.Millisecond)
			nx.Csend(6, fill(p, 16, 2), 16, 0, 0)
			nx.Drain()
		})
		c.Run()
		if got != 16 {
			t.Fatalf("self=%v: Crecv got %d bytes", self, got)
		}
		return c.Eng.EventsRun
	}
	quiet, pending := events(false), events(true)
	if pending-quiet > 8 {
		t.Errorf("Crecv ran %d events beside a pending self message of another type, %d without", pending, quiet)
	}
}

func TestIsendIrecvMsgwait(t *testing.T) {
	const n = 30000
	run(t, Config{},
		func(nx *NX, p *kernel.Process) {
			src := fill(p, n, 70)
			id := nx.Isend(3, src, n, 1, 0)
			nx.Msgwait(id)
			small := fill(p, 16, 71)
			id2 := nx.Isend(4, small, 16, 1, 0)
			if !nx.Msgdone(id2) {
				nx.Msgwait(id2)
			}
		},
		func(nx *NX, p *kernel.Process) {
			dst := p.Alloc(n, hw.Page)
			rid := nx.Irecv(3, dst, n)
			nx.Msgwait(rid)
			check(t, p, dst, n, 70)
			dst2 := p.Alloc(16, 4)
			rid2 := nx.Irecv(4, dst2, 16)
			nx.Msgwait(rid2)
			check(t, p, dst2, 16, 71)
		})
}

func TestSelfSend(t *testing.T) {
	run(t, Config{},
		func(nx *NX, p *kernel.Process) {
			src := fill(p, 200, 80)
			nx.Csend(5, src, 200, 0, 0) // to self
			dst := p.Alloc(200, 4)
			if got := nx.Crecv(5, dst, 200); got != 200 {
				t.Fatalf("self recv %d", got)
			}
			check(t, p, dst, 200, 80)
			if nx.Infonode() != 0 {
				t.Errorf("self infonode = %d", nx.Infonode())
			}
		})
}

func TestTruncation(t *testing.T) {
	run(t, Config{},
		func(nx *NX, p *kernel.Process) {
			src := fill(p, 1000, 90)
			nx.Csend(6, src, 1000, 1, 0)
		},
		func(nx *NX, p *kernel.Process) {
			dst := p.Alloc(100, 4)
			got := nx.Crecv(6, dst, 100)
			if got != 100 {
				t.Fatalf("truncated recv returned %d", got)
			}
			want := make([]byte, 1000)
			rand.New(rand.NewSource(90)).Read(want)
			if !bytes.Equal(p.Peek(dst, 100), want[:100]) {
				t.Error("truncated payload wrong")
			}
		})
}

func TestGsyncAndReductions(t *testing.T) {
	vals := []int64{3, 5, 7, 11}
	var got [4]int64
	var dgot [4]float64
	bodies := make([]func(*NX, *kernel.Process), 4)
	for i := 0; i < 4; i++ {
		i := i
		bodies[i] = func(nx *NX, p *kernel.Process) {
			nx.Gsync()
			got[i] = nx.Gisum(vals[i])
			dot := nx.Gdsum(float64(vals[i]) / 2)
			dot2 := nx.Gdsum(1.0)
			nx.Gsync()
			dgot[i] = dot + dot2
		}
	}
	run(t, Config{}, bodies...)
	for i := 0; i < 4; i++ {
		if got[i] != 26 {
			t.Errorf("node %d gisum = %d, want 26", i, got[i])
		}
		if dot := dgot[i]; dot != 13+4 {
			t.Errorf("node %d gdsum = %v, want 17", i, dot)
		}
	}
}

func TestManyRandomMessages(t *testing.T) {
	// Property-style stress: a pseudo-random message pattern among four
	// nodes, each also sending to itself, verified by content checksum at
	// the receivers.
	const perPair = 12
	bodies := make([]func(*NX, *kernel.Process), 4)
	for i := 0; i < 4; i++ {
		i := i
		bodies[i] = func(nx *NX, p *kernel.Process) {
			rng := rand.New(rand.NewSource(int64(i) * 977))
			// Send perPair messages to every node, itself included,
			// interleaved.
			type slot struct{ to, idx int }
			var plan []slot
			for to := 0; to < 4; to++ {
				for k := 0; k < perPair; k++ {
					plan = append(plan, slot{to, k})
				}
			}
			rng.Shuffle(len(plan), func(a, b int) { plan[a], plan[b] = plan[b], plan[a] })
			recvd := 0
			dst := p.Alloc(5000, 4)
			for _, s := range plan {
				n := 4 * (1 + rng.Intn(1200)) // up to 4800 B
				seed := int64(i*1000000 + s.to*10000 + s.idx)
				src := fill(p, n, seed)
				// Type encodes (sender, idx) so the receiver can
				// verify content.
				nx.Csend(1000+i*100+s.idx, src, n, s.to, 0)
				// Drain available inbound traffic opportunistically.
				for nx.Iprobe(TypeAny) {
					nx.Crecv(TypeAny, dst, 5000)
					verify(t, nx, p, dst)
					recvd++
				}
			}
			for recvd < 4*perPair {
				nx.Crecv(TypeAny, dst, 5000)
				verify(t, nx, p, dst)
				recvd++
			}
		}
	}
	run(t, Config{}, bodies...)
}

func verify(t *testing.T, nx *NX, p *kernel.Process, dst kernel.VA) {
	typ := nx.Infotype()
	from := nx.Infonode()
	idx := typ - 1000 - from*100
	seed := int64(from*1000000 + nx.Mynode()*10000 + idx)
	n := nx.Infocount()
	want := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(want)
	if !bytes.Equal(p.Peek(dst, n), want) {
		t.Errorf("random message from %d type %d corrupted", from, typ)
	}
}

func TestGather(t *testing.T) {
	const per = 64
	bodies := make([]func(*NX, *kernel.Process), 4)
	var rootData kernel.VA
	var rootProc *kernel.Process
	for i := 0; i < 4; i++ {
		i := i
		bodies[i] = func(nx *NX, p *kernel.Process) {
			src := fill(p, per, int64(500+i))
			dst := p.Alloc(4*per, 4)
			if i == 0 {
				rootData, rootProc = dst, p
			}
			nx.Gather(0, src, per, dst)
			nx.Gsync()
		}
	}
	run(t, Config{}, bodies...)
	for i := 0; i < 4; i++ {
		want := make([]byte, per)
		rand.New(rand.NewSource(int64(500 + i))).Read(want)
		got := rootProc.Peek(rootData+kernel.VA(i*per), per)
		if !bytes.Equal(got, want) {
			t.Fatalf("gather slot %d corrupted", i)
		}
	}
}

func TestIsendLargeOverlapsCompute(t *testing.T) {
	// An asynchronous large send must return immediately (no backup copy)
	// and complete during Msgwait while the receiver participates.
	const n = 20000
	run(t, Config{},
		func(nx *NX, p *kernel.Process) {
			src := fill(p, n, 600)
			t0 := p.P.Now()
			id := nx.Isend(3, src, n, 1, 0)
			if issued := p.P.Now().Sub(t0); issued > 100*time.Microsecond {
				t.Errorf("isend blocked %v", issued)
			}
			p.Compute(200 * time.Microsecond) // overlap with the rendezvous
			nx.Msgwait(id)
		},
		func(nx *NX, p *kernel.Process) {
			dst := p.Alloc(n, hw.Page)
			if got := nx.Crecv(3, dst, n); got != n {
				t.Fatalf("recv %d", got)
			}
			check(t, p, dst, n, 600)
		})
}

// TestSection6Claims checks two quantitative claims from the paper's
// Discussion:
//
//	"it is common in NX ... for a sender to send a burst of user messages,
//	 which the receiver processes all at once at the end of the burst.
//	 When this happens, there is less than one control transfer per
//	 message."
//
//	"Typically, our libraries can avoid interrupts altogether."
func TestSection6Claims(t *testing.T) {
	const burst = 12 // fits in NumPkt buffers: no doorbell needed
	c := cluster.Default()
	var send, recv *NX
	baselineIRQs := make([]int64, 2)
	c.Spawn(0, "sender", func(p *kernel.Process) {
		nx := New(c, p, 0, 2, Config{})
		send = nx
		baselineIRQs[0] = p.M.IRQRaised
		src := fill(p, 128, 1)
		for i := 0; i < burst; i++ {
			nx.Csend(1, src, 128, 1, 0)
		}
		nx.Drain()
	})
	c.Spawn(1, "receiver", func(p *kernel.Process) {
		nx := New(c, p, 1, 2, Config{})
		recv = nx
		baselineIRQs[1] = p.M.IRQRaised
		// Process the whole burst at once, at the end.
		p.Compute(3 * 1000 * 1000) // 3ms elsewhere
		dst := p.Alloc(128, 4)
		for i := 0; i < burst; i++ {
			nx.Crecv(1, dst, 128)
		}
		nx.Drain()
	})
	c.Run()

	if send.Stats.DataSends != burst {
		t.Fatalf("data sends = %d, want %d", send.Stats.DataSends, burst)
	}
	// Lazy crediting: far fewer control transfers than messages.
	if recv.Stats.CreditFlushes >= burst {
		t.Fatalf("control transfers (%d) should be < messages (%d)", recv.Stats.CreditFlushes, burst)
	}
	// With buffers available the whole time, no interrupts at all beyond
	// those already counted at attach time (none).
	irqs := c.Node(0).M.IRQRaised - baselineIRQs[0] + c.Node(1).M.IRQRaised - baselineIRQs[1]
	if irqs != 0 {
		t.Fatalf("burst raised %d interrupts; the common case avoids them altogether", irqs)
	}
	if send.Stats.Doorbells != 0 {
		t.Fatalf("no doorbell expected with free buffers, got %d", send.Stats.Doorbells)
	}
	t.Logf("burst of %d messages: %d control transfers, 0 interrupts", burst, recv.Stats.CreditFlushes)
}
