package nx

import (
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
)

// waitEvents runs sender on node 0 and receiver on node 1 of a 2-node
// cluster and returns the engine events run while receiver's wait (the
// call it passes to measure) was in progress. A wait that parks costs a
// few wakes; one that polls costs one event per PollCheckCost.
func waitEvents(t *testing.T, cfg Config, sender func(*NX, *kernel.Process), receiver func(nx *NX, p *kernel.Process, measure func(wait func()))) int64 {
	t.Helper()
	c := cluster.Default()
	defer c.Shutdown()
	var events int64 = -1
	c.Spawn(0, "send", func(p *kernel.Process) {
		nx := New(c, p, 0, 2, cfg)
		sender(nx, p)
		nx.Drain()
	})
	c.Spawn(1, "recv", func(p *kernel.Process) {
		nx := New(c, p, 1, 2, cfg)
		receiver(nx, p, func(wait func()) {
			e0 := c.Eng.EventsRun
			wait()
			events = c.Eng.EventsRun - e0
		})
		nx.Drain()
	})
	if _, err := c.RunChecked(time.Second); err != nil {
		t.Fatal(err)
	}
	if events < 0 {
		t.Fatal("the measured wait never ran")
	}
	return events
}

func TestWaitChunkParks(t *testing.T) {
	// A multi-buffer DU-2copy message: the receiver waits in waitChunk
	// for each continuation chunk while the sender marshals it.
	const n = 9216
	events := waitEvents(t, Config{Force: ProtoDU2},
		func(nx *NX, p *kernel.Process) {
			nx.Csend(3, fill(p, n, 40), n, 1, 0)
		},
		func(nx *NX, p *kernel.Process, measure func(func())) {
			dst := p.Alloc(n, hw.WordSize)
			measure(func() {
				if got := nx.Crecv(3, dst, n); got != n {
					t.Errorf("Crecv got %d bytes, want %d", got, n)
				}
			})
			check(t, p, dst, n, 40)
		})
	t.Logf("%d B DU-2copy Crecv: %d events", n, events)
	if events >= 400 {
		t.Errorf("a %d B DU-2copy Crecv ran %d events; a parked chunk wait runs a few hundred", n, events)
	}
}

func TestMsgwaitParks(t *testing.T) {
	// The message comes 5 ms after the receive is posted: a Msgwait that
	// polls every PollCheckCost runs ~50k events in that time.
	events := waitEvents(t, Config{},
		func(nx *NX, p *kernel.Process) {
			p.Compute(5 * time.Millisecond)
			nx.Csend(3, fill(p, 64, 41), 64, 1, 0)
		},
		func(nx *NX, p *kernel.Process, measure func(func())) {
			dst := p.Alloc(64, hw.WordSize)
			id := nx.Irecv(3, dst, 64)
			measure(func() { nx.Msgwait(id) })
			check(t, p, dst, 64, 41)
		})
	t.Logf("Msgwait over 5 ms: %d events", events)
	if events >= 200 {
		t.Errorf("Msgwait on a receive 5 ms out ran %d events", events)
	}
}

func TestIsendBeyondMaxZC(t *testing.T) {
	// One Isend more than the zero-copy ring holds: the ninth blocks in
	// zcStart until an earlier transfer completes, which only its
	// sender can advance.
	const n, count = 4096, MaxZC + 1
	c := cluster.Default()
	defer c.Shutdown()
	received := 0
	c.Spawn(0, "send", func(p *kernel.Process) {
		nx := New(c, p, 0, 2, Config{})
		var ids [count]ID
		for i := range ids {
			ids[i] = nx.Isend(3, fill(p, n, int64(700+i)), n, 1, 0)
		}
		for _, id := range ids {
			nx.Msgwait(id)
		}
		nx.Drain()
	})
	c.Spawn(1, "recv", func(p *kernel.Process) {
		nx := New(c, p, 1, 2, Config{})
		dst := p.Alloc(n, hw.Page)
		for i := 0; i < count; i++ {
			if got := nx.Crecv(3, dst, n); got != n {
				t.Errorf("message %d: Crecv got %d bytes", i, got)
			}
			check(t, p, dst, n, int64(700+i))
			received++
		}
		nx.Drain()
	})
	if _, err := c.RunChecked(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if received != count {
		t.Fatalf("received %d of %d messages", received, count)
	}
}

func TestCrossedLargeIsends(t *testing.T) {
	// Each side starts a large Isend and then receives the other's: each
	// receive waits in zcRecv for a transfer only the other side's
	// library can advance, so every library call must advance parked
	// Isend transfers, not Msgwait alone.
	const n = 4096
	bodies := make([]func(*NX, *kernel.Process), 2)
	for i := range bodies {
		i := i
		bodies[i] = func(nx *NX, p *kernel.Process) {
			id := nx.Isend(3, fill(p, n, int64(800+i)), n, 1-i, 0)
			dst := p.Alloc(n, hw.Page)
			if got := nx.Crecv(3, dst, n); got != n {
				t.Errorf("node %d: Crecv got %d bytes", i, got)
			}
			check(t, p, dst, n, int64(801-i))
			nx.Msgwait(id)
		}
	}
	run(t, Config{}, bodies...)
}
