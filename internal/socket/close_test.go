package socket

import (
	"errors"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/vmmc"
)

// Teardown-wakes-waiters semantics: a blocking Recv or Send must observe a
// concurrent Close on its own connection and return ErrClosed instead of
// parking the process forever (which would leak a goroutine per leaked
// connection and wedge Engine.RunAll).

// TestAbortWakesBlockedReceiver: the client parks in Recv with no data in
// flight; a teardown Abort from another process on the same node must wake
// it with ErrClosed. (Close is owner-context-only: its FIN/ack publishes
// charge kernel time to the owning process, which is the one parked.)
func TestAbortWakesBlockedReceiver(t *testing.T) {
	cl := cluster.Default()
	woke := false
	var conn *Conn
	cl.Spawn(1, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(1).Daemon)
		lib := New(ep, cl.Ether, 1, ModeDU1)
		c, err := lib.Listen(5000).Accept()
		if err != nil {
			t.Error(err)
			return
		}
		// Hold the peer open so no FIN arrives; the receiver must be
		// woken by its own side's Close, not by EOF.
		_ = c
		p.P.Sleep(20 * time.Millisecond)
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	})
	cl.Spawn(0, "client", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		lib := New(ep, cl.Ether, 0, ModeDU1)
		c, err := lib.Connect(1, 5000)
		if err != nil {
			t.Error(err)
			return
		}
		conn = c
		buf := p.Alloc(256, hw.WordSize)
		_, err = c.Recv(buf, 256)
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Recv woke with %v, want ErrClosed", err)
		}
		woke = true
	})
	cl.Spawn(0, "closer", func(p *kernel.Process) {
		p.P.Sleep(5 * time.Millisecond)
		if conn != nil {
			conn.Abort()
		}
	})
	cl.Run()
	if !woke {
		t.Fatal("blocked receiver never woke — teardown leaked a parked proc")
	}
}

// TestAbortWakesBlockedSender: the client fills the ring until Send parks
// waiting for acknowledged space; Abort must wake it with ErrClosed.
func TestAbortWakesBlockedSender(t *testing.T) {
	cl := cluster.Default()
	woke := false
	var conn *Conn
	cl.Spawn(1, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(1).Daemon)
		lib := New(ep, cl.Ether, 1, ModeDU1)
		_, err := lib.Listen(5000).Accept()
		if err != nil {
			t.Error(err)
			return
		}
		// Never reads: the sender's ring fills and Send blocks.
		p.P.Sleep(50 * time.Millisecond)
	})
	cl.Spawn(0, "client", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		lib := New(ep, cl.Ether, 0, ModeDU1)
		c, err := lib.Connect(1, 5000)
		if err != nil {
			t.Error(err)
			return
		}
		conn = c
		buf := p.Alloc(8192, hw.WordSize)
		p.Poke(buf, make([]byte, 8192))
		for {
			if _, err := c.Send(buf, 8192); err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Send woke with %v, want ErrClosed", err)
				}
				break
			}
		}
		woke = true
	})
	cl.Spawn(0, "closer", func(p *kernel.Process) {
		p.P.Sleep(10 * time.Millisecond)
		if conn != nil {
			conn.Abort()
		}
	})
	cl.Run()
	if !woke {
		t.Fatal("blocked sender never woke — teardown leaked a parked proc")
	}
}

// TestSendAfterCloseFails: the existing post-close contract still holds
// with the wakeup machinery in place.
func TestSendAfterCloseFails(t *testing.T) {
	rig(t, ModeDU1,
		func(c *Conn, p *kernel.Process) {
			buf := p.Alloc(64, hw.WordSize)
			if _, err := c.RecvAll(buf, 64); err != nil {
				t.Error(err)
			}
		},
		func(c *Conn, p *kernel.Process) {
			buf := p.Alloc(64, hw.WordSize)
			if _, err := c.Send(buf, 64); err != nil {
				t.Error(err)
			}
			if err := c.Close(); err != nil {
				t.Error(err)
			}
			// Close is a half-close: sending errors, receiving may drain
			// (see TestHalfClose).
			if _, err := c.Send(buf, 64); !errors.Is(err, ErrClosed) {
				t.Errorf("Send after Close = %v, want ErrClosed", err)
			}
		})
}
