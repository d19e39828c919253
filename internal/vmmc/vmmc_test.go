package vmmc

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
)

// pair runs sender (node 0) and receiver (node 1) bodies on a fresh 4-node
// cluster and returns after the simulation drains.
func pair(t *testing.T, receiver, sender func(ep *Endpoint)) *cluster.Cluster {
	t.Helper()
	c := cluster.Default()
	done := 0
	c.Spawn(1, "receiver", func(p *kernel.Process) {
		receiver(Attach(p, c.Node(1).Daemon))
		done++
	})
	c.Spawn(0, "sender", func(p *kernel.Process) {
		// Give the receiver a head start to export.
		p.P.Sleep(time.Millisecond)
		sender(Attach(p, c.Node(0).Daemon))
		done++
	})
	c.Run()
	if done != 2 {
		t.Fatal("a process never finished (deadlock in protocol?)")
	}
	return c
}

func TestDeliberateUpdateEndToEnd(t *testing.T) {
	msg := []byte("virtual memory mapped communication!")
	var got []byte
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(2, 0)
			if _, err := ep.Export(va, 2, ExportOpts{Name: "rx"}); err != nil {
				t.Error(err)
				return
			}
			// Flag word at 8192-4; data at 0.
			ep.Proc.WaitWord(va+hw.Page*2-4, func(v uint32) bool { return v == 1 })
			got = ep.Proc.ReadBytes(va, len(msg))
		},
		func(ep *Endpoint) {
			imp, err := ep.Import(1, "rx")
			if err != nil {
				t.Error(err)
				return
			}
			src := ep.Proc.Alloc(256, hw.WordSize)
			padded := make([]byte, (len(msg)+3)/4*4)
			copy(padded, msg)
			ep.Proc.WriteBytes(src, padded)
			if err := ep.Send(imp, 0, src, len(padded)); err != nil {
				t.Error(err)
				return
			}
			flag := ep.Proc.Alloc(4, 4)
			ep.Proc.WriteWord(flag, 1)
			if err := ep.Send(imp, 2*hw.Page-4, flag, 4); err != nil {
				t.Error(err)
			}
		})
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q want %q", got, msg)
	}
}

func TestSendValidation(t *testing.T) {
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(1, 0)
			if _, err := ep.Export(va, 1, ExportOpts{Name: "rx"}); err != nil {
				t.Error(err)
			}
		},
		func(ep *Endpoint) {
			imp, err := ep.Import(1, "rx")
			if err != nil {
				t.Error(err)
				return
			}
			src := ep.Proc.Alloc(64, 4)
			if err := ep.Send(imp, 1, src, 4); err != ErrAlignment {
				t.Errorf("unaligned dst: %v", err)
			}
			if err := ep.Send(imp, 0, src+1, 4); err != ErrAlignment {
				t.Errorf("unaligned src: %v", err)
			}
			if err := ep.Send(imp, 0, src, 6); err != ErrAlignment {
				t.Errorf("non-word length: %v", err)
			}
			if err := ep.Send(imp, hw.Page-4, src, 8); err != ErrRange {
				t.Errorf("overflow: %v", err)
			}
			if err := ep.Send(imp, 0, src, 0); err != nil {
				t.Errorf("zero-length send: %v", err)
			}
		})
}

func TestImportErrors(t *testing.T) {
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(1, 0)
			if _, err := ep.Export(va, 1, ExportOpts{Name: "private", Allowed: []int{2}}); err != nil {
				t.Error(err)
			}
		},
		func(ep *Endpoint) {
			if _, err := ep.Import(1, "nonexistent"); err == nil {
				t.Error("import of unknown name succeeded")
			}
			if _, err := ep.Import(1, "private"); err == nil {
				t.Error("import despite permission denial succeeded")
			}
		})
}

func TestAutomaticUpdateEndToEnd(t *testing.T) {
	msg := bytes.Repeat([]byte("au"), 500)
	var got []byte
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(1, 0)
			if _, err := ep.Export(va, 1, ExportOpts{Name: "rx"}); err != nil {
				t.Error(err)
				return
			}
			ep.Proc.WaitWord(va+hw.Page-4, func(v uint32) bool { return v == 7 })
			got = ep.Proc.ReadBytes(va, len(msg))
		},
		func(ep *Endpoint) {
			imp, err := ep.Import(1, "rx")
			if err != nil {
				t.Error(err)
				return
			}
			local := ep.Proc.MapPages(1, 0)
			b, err := ep.BindAU(local, imp, 0, 1, AUOpts{Combine: true})
			if err != nil {
				t.Error(err)
				return
			}
			// Stores to the bound page propagate automatically: write
			// the message, then the flag — no explicit send.
			ep.Proc.WriteBytes(local, msg)
			ep.Proc.WriteWord(local+hw.Page-4, 7)
			_ = b
		})
	if !bytes.Equal(got, msg) {
		t.Fatalf("AU payload corrupted (%d bytes)", len(got))
	}
}

// latencyRig measures one-way small-transfer latency: sender transmits a
// word, receiver observes it. Returns microseconds.
func measureDUWordLatency(t *testing.T) float64 {
	var sendAt, seenAt sim.Time
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(1, 0)
			if _, err := ep.Export(va, 1, ExportOpts{Name: "rx"}); err != nil {
				t.Error(err)
				return
			}
			ep.Proc.WaitWord(va, func(v uint32) bool { return v == 0xabcd })
			seenAt = ep.Proc.P.Now()
		},
		func(ep *Endpoint) {
			imp, err := ep.Import(1, "rx")
			if err != nil {
				t.Error(err)
				return
			}
			src := ep.Proc.Alloc(4, 4)
			ep.Proc.Poke(src, []byte{0xcd, 0xab, 0, 0}) // prestage, zero-cost
			ep.Proc.P.Sleep(time.Millisecond)           // settle
			sendAt = ep.Proc.P.Now()
			if err := ep.Send(imp, 0, src, 4); err != nil {
				t.Error(err)
			}
		})
	return seenAt.Sub(sendAt).Seconds() * 1e6
}

func measureAUWordLatency(t *testing.T, uncached bool) float64 {
	var sendAt, seenAt sim.Time
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(1, 0)
			if _, err := ep.Export(va, 1, ExportOpts{Name: "rx"}); err != nil {
				t.Error(err)
				return
			}
			ep.Proc.WaitWord(va, func(v uint32) bool { return v == 0xabcd })
			seenAt = ep.Proc.P.Now()
		},
		func(ep *Endpoint) {
			imp, err := ep.Import(1, "rx")
			if err != nil {
				t.Error(err)
				return
			}
			local := ep.Proc.MapPages(1, 0)
			if _, err := ep.BindAU(local, imp, 0, 1, AUOpts{Combine: true, Uncached: uncached}); err != nil {
				t.Error(err)
				return
			}
			ep.Proc.P.Sleep(time.Millisecond)
			sendAt = ep.Proc.P.Now()
			ep.Proc.WriteWord(local, 0xabcd)
		})
	return seenAt.Sub(sendAt).Seconds() * 1e6
}

// TestPaperLatencyTargets checks the three headline one-word latencies from
// paper Section 3.4. These are one-shot (single message) measurements, which
// run ~0.4 us under the paper's ping-pong-averaged numbers; the exact
// calibration check lives in the bench package's Figure 3 tests, which use
// the paper's methodology.
func TestPaperLatencyTargets(t *testing.T) {
	du := measureDUWordLatency(t)
	if du < 6.9 || du > 7.7 {
		t.Errorf("DU one-word latency %.2f us, want just under the paper's 7.6", du)
	}
	au := measureAUWordLatency(t, false)
	if au < 4.1 || au > 4.9 {
		t.Errorf("AU one-word latency (write-through) %.2f us, want just under the paper's 4.75", au)
	}
	auU := measureAUWordLatency(t, true)
	if auU < 3.0 || auU > 3.8 {
		t.Errorf("AU one-word latency (uncached) %.2f us, want just under the paper's 3.7", auU)
	}
	if d := au - auU; d < 1.0 || d > 1.1 {
		t.Errorf("cached-vs-uncached delta %.2f us, paper 1.05", d)
	}
	t.Logf("one-word latencies: DU %.2f us (paper 7.6), AU-WT %.2f us (4.75), AU-uncached %.2f us (3.7)", du, au, auU)
}

func TestNotificationHandler(t *testing.T) {
	var notified []int
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(1, 0)
			exp, err := ep.Export(va, 1, ExportOpts{
				Name:    "rx",
				Handler: func(n Notification) { notified = append(notified, n.SrcNode) },
			})
			if err != nil {
				t.Error(err)
				return
			}
			n := exp.Wait()
			if n.SrcNode != 0 {
				t.Errorf("notification from %d", n.SrcNode)
			}
		},
		func(ep *Endpoint) {
			imp, err := ep.Import(1, "rx")
			if err != nil {
				t.Error(err)
				return
			}
			src := ep.Proc.Alloc(4, 4)
			if err := ep.SendNotify(imp, 0, src, 4); err != nil {
				t.Error(err)
			}
		})
	if len(notified) != 1 || notified[0] != 0 {
		t.Fatalf("handler calls: %v", notified)
	}
}

// A buffer served by its handler alone queues nothing for Wait, however
// many notifications its handler takes; from its first Wait on, it queues
// each one for the next Wait.
func TestHandlerOnlyExportQueuesNothing(t *testing.T) {
	const sends = 6
	handled := 0
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(1, 0)
			exp, err := ep.Export(va, 1, ExportOpts{Name: "rx", Handler: func(Notification) { handled++ }})
			if err != nil {
				t.Error(err)
				return
			}
			for handled < sends/2 {
				ep.Proc.P.Sleep(10 * time.Microsecond)
			}
			if exp.Pending() != 0 || cap(exp.queue) != 0 {
				t.Errorf("after %d handled notifications: %d queued (capacity %d), want none", handled, exp.Pending(), cap(exp.queue))
			}
			for k := sends / 2; k < sends; k++ {
				exp.Wait()
			}
			if exp.Pending() != 0 {
				t.Errorf("%d notifications left queued after a Wait for each", exp.Pending())
			}
		},
		func(ep *Endpoint) {
			imp, err := ep.Import(1, "rx")
			if err != nil {
				t.Error(err)
				return
			}
			src := ep.Proc.Alloc(4, 4)
			for k := 0; k < sends; k++ {
				if err := ep.SendNotify(imp, 0, src, 4); err != nil {
					t.Error(err)
				}
				ep.Proc.P.Sleep(200 * time.Microsecond)
			}
		})
	if handled != sends {
		t.Fatalf("handler ran %d times, want %d", handled, sends)
	}
}

// Notifications that arrive while blocked queue on the endpoint, run no
// handler, and are delivered in arrival order on unblock.
func TestNotificationQueuedWhileBlocked(t *testing.T) {
	var got []string
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(2, 0)
			for i, name := range []string{"a", "b"} {
				if _, err := ep.Export(va+kernel.VA(i*hw.Page), 1, ExportOpts{
					Name:    name,
					Handler: func(Notification) { got = append(got, name) },
				}); err != nil {
					t.Error(err)
					return
				}
			}
			ep.BlockNotifications()
			// The sender notifies b, then a; wait until both words
			// land, then check nothing was delivered.
			ep.Proc.WaitWord(va, func(v uint32) bool { return v == 2 })
			ep.Proc.P.Sleep(200 * time.Microsecond) // let interrupts queue
			if len(got) != 0 {
				t.Errorf("handler ran while blocked: %v", got)
			}
			if len(ep.notes) != 2 {
				t.Errorf("queued notifications = %d, want 2", len(ep.notes))
			}
			ep.UnblockNotifications()
			if !slices.Equal(got, []string{"b", "a"}) {
				t.Errorf("handler runs after unblock = %v, want [b a]", got)
			}
			if len(ep.notes) != 0 {
				t.Errorf("%d notifications left queued after unblock", len(ep.notes))
			}
		},
		func(ep *Endpoint) {
			for k, name := range []string{"b", "a"} {
				imp, err := ep.Import(1, name)
				if err != nil {
					t.Error(err)
					return
				}
				src := ep.Proc.Alloc(4, 4)
				ep.Proc.WriteWord(src, uint32(k+1))
				if err := ep.SendNotify(imp, 0, src, 4); err != nil {
					t.Error(err)
				}
			}
		})
}

func TestNotificationDiscard(t *testing.T) {
	count := 0
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(1, 0)
			exp, err := ep.Export(va, 1, ExportOpts{
				Name:    "rx",
				Handler: func(n Notification) { count++ },
			})
			if err != nil {
				t.Error(err)
				return
			}
			exp.SetDiscard(true)
			ep.Proc.WaitWord(va, func(v uint32) bool { return v != 0 })
			ep.Proc.P.Sleep(200 * time.Microsecond)
		},
		func(ep *Endpoint) {
			imp, err := ep.Import(1, "rx")
			if err != nil {
				t.Error(err)
				return
			}
			src := ep.Proc.Alloc(4, 4)
			ep.Proc.WriteWord(src, 9)
			if err := ep.SendNotify(imp, 0, src, 4); err != nil {
				t.Error(err)
			}
		})
	if count != 0 {
		t.Fatalf("discarded notification was delivered %d times", count)
	}
}

func TestUnimportDrainsAndRevokes(t *testing.T) {
	var final []byte
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(1, 0)
			if _, err := ep.Export(va, 1, ExportOpts{Name: "rx"}); err != nil {
				t.Error(err)
				return
			}
			ep.Proc.WaitWord(va, func(v uint32) bool { return v == 0x11111111 })
			final = ep.Proc.ReadBytes(va, 8)
		},
		func(ep *Endpoint) {
			imp, err := ep.Import(1, "rx")
			if err != nil {
				t.Error(err)
				return
			}
			src := ep.Proc.Alloc(8, 4)
			ep.Proc.Poke(src, []byte{0x11, 0x11, 0x11, 0x11, 0x22, 0x22, 0x22, 0x22})
			if err := ep.Send(imp, 0, src, 8); err != nil {
				t.Error(err)
			}
			// Unimport must wait for the pending message, then revoke.
			if err := ep.Unimport(imp); err != nil {
				t.Error(err)
			}
			if err := ep.Send(imp, 0, src, 4); err != ErrRevoked {
				t.Errorf("send after unimport: %v", err)
			}
		})
	if !bytes.Equal(final, []byte{0x11, 0x11, 0x11, 0x11, 0x22, 0x22, 0x22, 0x22}) {
		t.Fatalf("pending data lost across unimport: %x", final)
	}
}

func TestUnexportRevokesImporters(t *testing.T) {
	c := cluster.Default()
	exported := sim.NewCond(c.Eng)
	imported := sim.NewCond(c.Eng)
	var expReady, impReady bool
	var sendErrAfter error
	okSent := false
	c.Spawn(1, "receiver", func(p *kernel.Process) {
		ep := Attach(p, c.Node(1).Daemon)
		va := p.MapPages(1, 0)
		exp, err := ep.Export(va, 1, ExportOpts{Name: "rx"})
		if err != nil {
			t.Error(err)
			return
		}
		expReady = true
		exported.Broadcast()
		for !impReady {
			imported.Wait(p.P)
		}
		p.WaitWord(va, func(v uint32) bool { return v == 5 }) // first send arrived
		if err := ep.Unexport(exp); err != nil {
			t.Error(err)
		}
	})
	c.Spawn(0, "sender", func(p *kernel.Process) {
		ep := Attach(p, c.Node(0).Daemon)
		for !expReady {
			exported.Wait(p.P)
		}
		imp, err := ep.Import(1, "rx")
		if err != nil {
			t.Error(err)
			return
		}
		impReady = true
		imported.Broadcast()
		src := p.Alloc(4, 4)
		p.WriteWord(src, 5)
		if err := ep.Send(imp, 0, src, 4); err != nil {
			t.Error(err)
			return
		}
		okSent = true
		// Wait for the unexport revocation to reach us, then sending
		// must fail (OPT entries invalidated: the NIC drops packets to
		// invalid entries; the daemon-level mapping is gone).
		p.P.Sleep(20 * time.Millisecond)
		sendErrAfter = ep.Send(imp, 0, src, 4)
	})
	c.Run()
	if !okSent {
		t.Fatal("initial send failed")
	}
	// After revocation the local import record is released; the send
	// either errors or is silently dropped by the invalidated OPT —
	// crucially the receiver must NOT get data (its IPT is off, and a
	// fault would panic via the daemon). Reaching here without panic
	// plus a nil/ErrRevoked error is success.
	if sendErrAfter != nil && sendErrAfter != ErrRevoked {
		t.Fatalf("unexpected send error: %v", sendErrAfter)
	}
	if c.Node(1).Daemon.Exports() != 0 {
		t.Fatal("export record leaked")
	}
}

func TestAUBindingValidation(t *testing.T) {
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(2, 0)
			if _, err := ep.Export(va, 2, ExportOpts{Name: "rx"}); err != nil {
				t.Error(err)
			}
		},
		func(ep *Endpoint) {
			imp, err := ep.Import(1, "rx")
			if err != nil {
				t.Error(err)
				return
			}
			local := ep.Proc.MapPages(3, 0)
			if _, err := ep.BindAU(local+1, imp, 0, 1, AUOpts{}); err == nil {
				t.Error("unaligned BindAU succeeded")
			}
			if _, err := ep.BindAU(local, imp, 1, 2, AUOpts{}); err == nil {
				t.Error("out-of-range BindAU succeeded")
			}
			// Valid binding + unbind.
			b, err := ep.BindAU(local, imp, 0, 2, AUOpts{Combine: true})
			if err != nil {
				t.Error(err)
				return
			}
			if err := ep.UnbindAU(b); err != nil {
				t.Error(err)
			}
			if err := ep.UnbindAU(b); err != ErrRevoked {
				t.Errorf("double unbind: %v", err)
			}
		})
}

// Property-style test: random transfer sequences with random sizes and
// offsets preserve content and never interleave wrongly (in-order
// delivery).
func TestRandomTransfersIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const pages = 4
	type xfer struct {
		off  int
		data []byte
	}
	var xfers []xfer
	occupied := make([]bool, pages*hw.Page)
	for i := 0; i < 40; i++ {
		n := (1 + rng.Intn(600)) * 4
		off := rng.Intn(pages*hw.Page-n) &^ 3
		clash := false
		for j := off; j < off+n; j++ {
			if occupied[j] {
				clash = true
				break
			}
		}
		if clash {
			continue
		}
		for j := off; j < off+n; j++ {
			occupied[j] = true
		}
		data := make([]byte, n)
		rng.Read(data)
		xfers = append(xfers, xfer{off, data})
	}
	var got [][]byte
	pair(t,
		func(ep *Endpoint) {
			va := ep.Proc.MapPages(pages, 0)
			if _, err := ep.Export(va, pages, ExportOpts{Name: "rx"}); err != nil {
				t.Error(err)
				return
			}
			// Completion flag: one extra page exported separately.
			fva := ep.Proc.MapPages(1, 0)
			if _, err := ep.Export(fva, 1, ExportOpts{Name: "flag"}); err != nil {
				t.Error(err)
				return
			}
			ep.Proc.WaitWord(fva, func(v uint32) bool { return v == 1 })
			for _, x := range xfers {
				got = append(got, ep.Proc.Peek(va+kernel.VA(x.off), len(x.data)))
			}
		},
		func(ep *Endpoint) {
			imp, err := ep.Import(1, "rx")
			if err != nil {
				t.Error(err)
				return
			}
			fimp, err := ep.Import(1, "flag")
			if err != nil {
				t.Error(err)
				return
			}
			for _, x := range xfers {
				src := ep.Proc.Alloc(len(x.data), 4)
				ep.Proc.Poke(src, x.data)
				if err := ep.Send(imp, x.off, src, len(x.data)); err != nil {
					t.Error(err)
					return
				}
			}
			f := ep.Proc.Alloc(4, 4)
			ep.Proc.WriteWord(f, 1)
			if err := ep.Send(fimp, 0, f, 4); err != nil {
				t.Error(err)
			}
		})
	if len(got) != len(xfers) {
		t.Fatalf("missing results: %d/%d", len(got), len(xfers))
	}
	for i, x := range xfers {
		if !bytes.Equal(got[i], x.data) {
			t.Fatalf("transfer %d corrupted (off=%d len=%d)", i, x.off, len(x.data))
		}
	}
}
