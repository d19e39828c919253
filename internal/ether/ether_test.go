package ether

import (
	"testing"
	"time"

	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

func TestSendRecv(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 4)
	a := n.Bind(Addr{0, 1})
	b := n.Bind(Addr{3, 1})
	var got *Message
	e.Spawn("rx", func(p *sim.Proc) { got = b.Recv(p) })
	e.Spawn("tx", func(p *sim.Proc) { a.Send(p, Addr{3, 1}, 100, "hello") })
	e.RunAll()
	if got == nil || got.Payload != "hello" || got.From != (Addr{0, 1}) {
		t.Fatalf("got %+v", got)
	}
}

func TestTimingIncludesStackAndWire(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 2)
	a := n.Bind(Addr{0, 1})
	b := n.Bind(Addr{1, 1})
	var at sim.Time
	e.Spawn("rx", func(p *sim.Proc) {
		b.Recv(p)
		at = p.Now()
	})
	e.Spawn("tx", func(p *sim.Proc) { a.Send(p, Addr{1, 1}, 1000, nil) })
	e.RunAll()
	wire := time.Duration(1000+hw.EtherFrameOverhead) * hw.EtherPerByte
	want := sim.Time(0).Add(hw.EtherSyscallCost + wire + hw.EtherInterruptCost)
	if at != want {
		t.Fatalf("arrival %v, want %v", at, want)
	}
	// Sanity: a 1000-byte message on 10 Mb/s Ethernet takes ~850us of
	// wire time — orders of magnitude above the backplane.
	if at < sim.Time(500*1000) {
		t.Fatalf("ethernet implausibly fast: %v", at)
	}
}

func TestSharedMediumSerializes(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 4)
	a := n.Bind(Addr{0, 1})
	c := n.Bind(Addr{1, 1})
	d := n.Bind(Addr{2, 1})
	var arrivals []sim.Time
	e.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			d.Recv(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	e.Spawn("tx1", func(p *sim.Proc) { a.Send(p, Addr{2, 1}, 1400, nil) })
	e.Spawn("tx2", func(p *sim.Proc) { c.Send(p, Addr{2, 1}, 1400, nil) })
	e.RunAll()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	wire := time.Duration(1400+hw.EtherFrameOverhead) * hw.EtherPerByte
	if gap := arrivals[1].Sub(arrivals[0]); gap < wire {
		t.Fatalf("medium not serialized: gap %v < %v", gap, wire)
	}
}

func TestDropToUnbound(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 2)
	a := n.Bind(Addr{0, 1})
	e.Spawn("tx", func(p *sim.Proc) { a.Send(p, Addr{1, 99}, 10, nil) })
	e.RunAll()
	if n.MessagesDelivered != 0 {
		t.Fatal("message to unbound address was delivered")
	}
}

func TestRebindAfterClose(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 2)
	p := n.Bind(Addr{0, 5})
	p.Close()
	n.Bind(Addr{0, 5}) // must not panic
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double bind should panic")
			}
		}()
		n.Bind(Addr{0, 5})
	}()
}

func TestCloseWakesReceiver(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 2)
	p := n.Bind(Addr{0, 1})
	var got *Message = &Message{}
	e.Spawn("rx", func(pr *sim.Proc) { got = p.Recv(pr) })
	e.Spawn("closer", func(pr *sim.Proc) {
		pr.Sleep(time.Millisecond)
		p.Close()
	})
	e.RunAll()
	if got != nil {
		t.Fatal("Recv on closed port should return nil")
	}
}

func TestCallMatchesReply(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 3)
	cli := n.Bind(Addr{0, 1})
	srv := n.Bind(Addr{1, 1})
	noise := n.Bind(Addr{2, 1})
	var reply *Message
	e.Spawn("server", func(p *sim.Proc) {
		m := srv.Recv(p)
		srv.Send(p, m.From, 10, "reply")
	})
	e.Spawn("noise", func(p *sim.Proc) { noise.Send(p, Addr{0, 1}, 10, "noise") })
	e.Spawn("client", func(p *sim.Proc) {
		reply = cli.Call(p, Addr{1, 1}, 10, "req", 0)
	})
	e.RunAll()
	if reply == nil || reply.Payload != "reply" {
		t.Fatalf("reply = %+v", reply)
	}
	// The noise datagram must still be readable afterwards.
	if m := cli.TryRecv(); m == nil || m.Payload != "noise" {
		t.Fatalf("noise lost: %+v", m)
	}
}

func TestMultiFrameOverhead(t *testing.T) {
	// A 4000-byte message spans 3 frames; wire time must include 3 frame
	// overheads.
	e := sim.NewEngine()
	n := New(e, 2)
	a := n.Bind(Addr{0, 1})
	b := n.Bind(Addr{1, 1})
	var at sim.Time
	e.Spawn("rx", func(p *sim.Proc) { b.Recv(p); at = p.Now() })
	e.Spawn("tx", func(p *sim.Proc) { a.Send(p, Addr{1, 1}, 4000, nil) })
	e.RunAll()
	wire := time.Duration(4000+3*hw.EtherFrameOverhead) * hw.EtherPerByte
	want := sim.Time(0).Add(hw.EtherSyscallCost + wire + hw.EtherInterruptCost)
	if at != want {
		t.Fatalf("arrival %v want %v", at, want)
	}
}

func TestCallTimeout(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 2)
	a := n.Bind(Addr{0, 1})
	var got *Message = &Message{}
	var elapsed time.Duration
	e.Spawn("caller", func(p *sim.Proc) {
		t0 := p.Now()
		got = a.Call(p, Addr{1, 9}, 10, "req", 5*time.Millisecond)
		elapsed = p.Now().Sub(t0)
	})
	e.RunAll()
	if got != nil {
		t.Fatal("call to unbound address should time out with nil")
	}
	if elapsed < 5*time.Millisecond || elapsed > 6*time.Millisecond {
		t.Fatalf("timed out after %v, want ~5ms", elapsed)
	}
}

func TestCallTimeoutSuccess(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 2)
	a := n.Bind(Addr{0, 1})
	b := n.Bind(Addr{1, 1})
	var got *Message
	e.Spawn("server", func(p *sim.Proc) {
		m := b.Recv(p)
		b.Send(p, m.From, 4, "pong")
	})
	e.Spawn("caller", func(p *sim.Proc) {
		got = a.Call(p, Addr{1, 1}, 4, "ping", 50*time.Millisecond)
	})
	e.RunAll()
	if got == nil || got.Payload != "pong" {
		t.Fatalf("reply %+v", got)
	}
}
