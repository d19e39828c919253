package socket

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/vmmc"
)

// TestListenerAcceptsMultipleConnections: one listener serves three
// sequential clients from different nodes, each with its own mapping pair.
func TestListenerAcceptsMultipleConnections(t *testing.T) {
	cl := cluster.Default()
	served := 0
	cl.Spawn(3, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(3).Daemon)
		lib := New(ep, cl.Ether, 3, ModeAU2)
		ln := lib.Listen(9000)
		for i := 0; i < 3; i++ {
			conn, err := ln.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			buf := p.Alloc(64, 4)
			n, err := conn.RecvAll(buf, 5)
			if err != nil || n != 5 {
				t.Errorf("conn %d: recv %d %v", i, n, err)
				return
			}
			// Echo with a prefix identifying the server pass.
			reply := append([]byte{byte('0' + i)}, p.Peek(buf, 5)...)
			out := p.Alloc(16, 4)
			p.Poke(out, reply)
			if _, err := conn.Send(out, len(reply)); err != nil {
				t.Error(err)
				return
			}
			if err := conn.Close(); err != nil {
				t.Error(err)
			}
			served++
		}
	})
	for node := 0; node < 3; node++ {
		node := node
		cl.Spawn(node, "client", func(p *kernel.Process) {
			ep := vmmc.Attach(p, cl.Node(node).Daemon)
			lib := New(ep, cl.Ether, node, ModeAU2)
			// Stagger connects so accept order is deterministic.
			p.P.Sleep(time.Duration(node) * 3 * time.Millisecond)
			conn, err := lib.Connect(3, 9000)
			if err != nil {
				t.Error(err)
				return
			}
			msg := fmt.Sprintf("hi-%d!", node)[:5]
			if err := sendString(conn, msg); err != nil {
				t.Error(err)
				return
			}
			buf := p.Alloc(16, 4)
			n, err := conn.RecvAll(buf, 6)
			if err != nil || n != 6 {
				t.Errorf("client %d: recv %d %v", node, n, err)
				return
			}
			got := p.Peek(buf, 6)
			if !bytes.Equal(got[1:], []byte(msg)) {
				t.Errorf("client %d echo: %q", node, got)
			}
			if err := conn.Close(); err != nil {
				t.Error(err)
			}
		})
	}
	cl.Run()
	if served != 3 {
		t.Fatalf("served %d/3 connections", served)
	}
}

// TestSendAfterPeerClosed: writing into a connection whose peer has shut
// down its receive direction still succeeds at the transport level (the
// mapping remains until torn down); reading returns EOF. This mirrors
// half-close semantics of stream sockets.
func TestHalfClose(t *testing.T) {
	cl := cluster.Default()
	ok := false
	cl.Spawn(1, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(1).Daemon)
		lib := New(ep, cl.Ether, 1, ModeDU1)
		conn, err := lib.Listen(9001).Accept()
		if err != nil {
			t.Error(err)
			return
		}
		// Close our sending side immediately; keep receiving.
		if err := conn.Close(); err != nil {
			t.Error(err)
		}
		buf := p.Alloc(64, 4)
		n, err := conn.RecvAll(buf, 10)
		if err != nil || n != 10 {
			t.Errorf("recv after own close: %d %v", n, err)
			return
		}
		if string(p.Peek(buf, 10)) != "still-here" {
			t.Error("payload corrupted through half-closed connection")
		}
		ok = true
	})
	cl.Spawn(0, "client", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		lib := New(ep, cl.Ether, 0, ModeDU1)
		conn, err := lib.Connect(1, 9001)
		if err != nil {
			t.Error(err)
			return
		}
		// Peer closed its direction: our reads see EOF...
		buf := p.Alloc(16, 4)
		if n, err := conn.Recv(buf, 4); n != 0 || err != nil {
			t.Errorf("expected EOF, got %d %v", n, err)
		}
		// ...but our sending direction still works.
		if err := sendString(conn, "still-here"); err != nil {
			t.Error(err)
		}
		if err := conn.Close(); err != nil {
			t.Error(err)
		}
	})
	cl.Run()
	if !ok {
		t.Fatal("server never finished")
	}
}

// sendString sends a Go string through the stream from a fresh heap buffer.
func sendString(c *Conn, s string) error {
	p := c.lib.ep.Proc
	va := p.Alloc(len(s)+8, hw.WordSize)
	p.Poke(va, []byte(s))
	_, err := c.Send(va, len(s))
	return err
}
