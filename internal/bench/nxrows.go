package bench

import (
	"bytes"
	"fmt"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/nx"
	"shrimp/internal/sim"
)

// The NX paths Figure 4's ping-pong never takes: multi-buffer DU-2copy
// messages read through probes beside self-addressed messages, and
// asynchronous sends and receives with more large transfers outstanding
// than the zero-copy ring holds. Each scenario checks every byte and info
// field it receives and fails the run otherwise.

// nxBudget bounds each NX and notification scenario's virtual run: each
// finishes within about 10 ms on a clean backplane.
const nxBudget = 50 * time.Millisecond

// nxPattern is message k's byte i: the chaos stream's pattern, varied by k.
func nxPattern(k, i int) byte { return chaosPattern(i) ^ byte(k*37) }

// nxFill allocates a word-aligned buffer of n bytes holding message k.
func nxFill(p *kernel.Process, k, n int) kernel.VA {
	va := p.Alloc(n+8, hw.WordSize)
	b := make([]byte, n)
	for i := range b {
		b[i] = nxPattern(k, i)
	}
	p.Poke(va, b)
	return va
}

// nxWarm opens the connection between nodes 0 and 1 with one word each
// way, so the timed part of a scenario excludes the connection setup.
func nxWarm(x *nx.NX, p *kernel.Process) {
	const typWarm = 99
	buf := p.Alloc(hw.WordSize, hw.WordSize)
	if x.Mynode() == 0 {
		x.Csend(typWarm, buf, hw.WordSize, 1, 0)
		x.Crecv(typWarm, buf, hw.WordSize)
	} else {
		x.Crecv(typWarm, buf, hw.WordSize)
		x.Csend(typWarm, buf, hw.WordSize, 0, 0)
	}
}

// nxChecker collects the first mismatch an NX scenario sees.
type nxChecker struct{ err error }

func (c *nxChecker) failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// payload checks that n bytes at va hold message k.
func (c *nxChecker) payload(p *kernel.Process, va kernel.VA, k, n int, what string) {
	want := make([]byte, n)
	for i := range want {
		want[i] = nxPattern(k, i)
	}
	if !bytes.Equal(p.Peek(va, n), want) {
		c.failf("%s: payload corrupted (%d bytes)", what, n)
	}
}

// info checks the Info* fields a probe or receive left behind.
func (c *nxChecker) info(x *nx.NX, count, typ, node int, what string) {
	if x.Infocount() != count || x.Infotype() != typ || x.Infonode() != node {
		c.failf("%s: info count=%d type=%d node=%d, want %d %d %d",
			what, x.Infocount(), x.Infotype(), x.Infonode(), count, typ, node)
	}
}

// nxChunked exchanges one multi-buffer DU-2copy message each way. The
// receiver finds the request by Cprobe, which must leave it in place, and
// each side sends itself a message of another type and reads it back
// through Iprobe, Cprobe and Crecv while the remote message is in flight.
// It returns the round trip in us, the connection setup excluded.
func nxChunked(r *run, size int) (float64, error) {
	c := r.cluster(cluster.Config{})
	var ck nxChecker
	var start, end sim.Time
	const typReq, typRep, typSelf, typNone = 3, 4, 5, 9
	self := func(x *nx.NX, p *kernel.Process, me int) {
		const n = 40
		x.Csend(typSelf, nxFill(p, 10+me, n), n, me, 0)
		if !x.Iprobe(typSelf) {
			ck.failf("node %d: Iprobe missed its self message", me)
		}
		x.Cprobe(typSelf)
		ck.info(x, n, typSelf, me, "self probe")
		dst := p.Alloc(n+8, hw.WordSize)
		if got := x.Crecv(typSelf, dst, n); got != n {
			ck.failf("node %d: self Crecv got %d bytes, want %d", me, got, n)
		}
		ck.info(x, n, typSelf, me, "self receive")
		ck.payload(p, dst, 10+me, n, "self message")
	}
	c.Spawn(0, "nx-chunk-0", func(p *kernel.Process) {
		x := nx.New(c, p, 0, 2, nx.Config{Force: nx.ProtoDU2})
		src := nxFill(p, 1, size)
		dst := p.Alloc(size+8, hw.WordSize)
		nxWarm(x, p)
		start = p.P.Now()
		x.Csend(typReq, src, size, 1, 0)
		self(x, p, 0)
		if got := x.Crecv(typRep, dst, size); got != size {
			ck.failf("reply: Crecv got %d bytes, want %d", got, size)
		}
		end = p.P.Now()
		ck.info(x, size, typRep, 1, "reply")
		ck.payload(p, dst, 1, size, "reply")
		x.Drain()
	})
	c.Spawn(1, "nx-chunk-1", func(p *kernel.Process) {
		x := nx.New(c, p, 1, 2, nx.Config{Force: nx.ProtoDU2})
		nxWarm(x, p)
		if x.Iprobe(typNone) {
			ck.failf("Iprobe matched a type nobody sent")
		}
		x.Cprobe(typReq)
		ck.info(x, size, typReq, 0, "request probe")
		self(x, p, 1)
		dst := p.Alloc(size+8, hw.WordSize)
		if got := x.Crecv(typReq, dst, size); got != size {
			ck.failf("request: Crecv got %d bytes, want %d", got, size)
		}
		ck.info(x, size, typReq, 0, "request")
		ck.payload(p, dst, 1, size, "request")
		x.Csend(typRep, dst, size, 0, 0)
		x.Drain()
	})
	if _, err := c.RunChecked(nxBudget); err != nil {
		return 0, err
	}
	return end.Sub(start).Seconds() * 1e6, ck.err
}

// nxIsends has node 0 Isend count large messages at once, more than the
// zero-copy ring's MaxZC, to node 1, which posts an Irecv for each before
// waiting on any; both sides then Msgwait every handle in order. It
// returns the virtual time from the first Isend to the receiver's last
// Msgwait in us, the connection setup excluded.
func nxIsends(r *run, count, size int) (float64, error) {
	c := r.cluster(cluster.Config{})
	var ck nxChecker
	var start, end sim.Time
	const typ = 3
	c.Spawn(0, "nx-isend", func(p *kernel.Process) {
		x := nx.New(c, p, 0, 2, nx.Config{})
		srcs := make([]kernel.VA, count)
		for k := range srcs {
			srcs[k] = nxFill(p, 20+k, size)
		}
		nxWarm(x, p)
		start = p.P.Now()
		ids := make([]nx.ID, count)
		for k, src := range srcs {
			ids[k] = x.Isend(typ, src, size, 1, 0)
		}
		for _, id := range ids {
			x.Msgwait(id)
		}
		x.Drain()
	})
	c.Spawn(1, "nx-irecv", func(p *kernel.Process) {
		x := nx.New(c, p, 1, 2, nx.Config{})
		nxWarm(x, p)
		dsts := make([]kernel.VA, count)
		ids := make([]nx.ID, count)
		for k := range dsts {
			dsts[k] = p.Alloc(size, hw.Page)
			ids[k] = x.Irecv(typ, dsts[k], size)
		}
		for k, id := range ids {
			x.Msgwait(id)
			ck.info(x, size, typ, 0, fmt.Sprintf("message %d", k))
			if !x.Msgdone(id) {
				ck.failf("message %d: Msgdone false after Msgwait", k)
			}
		}
		end = p.P.Now()
		for k, dst := range dsts {
			ck.payload(p, dst, 20+k, size, fmt.Sprintf("message %d", k))
		}
		x.Drain()
	})
	if _, err := c.RunChecked(nxBudget); err != nil {
		return 0, err
	}
	return end.Sub(start).Seconds() * 1e6, ck.err
}

// nxDoorbell has node 0 Csend count small messages one way while node 1
// takes three and then computes in short slices, holding their credits
// lazily. The sender runs out of packet buffers and rings node 1's
// doorbell, whose notification handler (onDoorbell) returns the held
// credits between the slices, so the sender gets further than the credit
// window before node 1 reads again. It returns the doorbells rung and the
// virtual time from the first Csend to the last Crecv in us, the
// connection setup excluded.
func nxDoorbell(r *run, count, size int) (int64, float64, error) {
	c := r.cluster(cluster.Config{})
	var ck nxChecker
	var start, end sim.Time
	var doorbells int64
	const typ, early, steps = 3, 3, 20
	sent := 0
	c.Spawn(0, "nx-burst", func(p *kernel.Process) {
		x := nx.New(c, p, 0, 2, nx.Config{Force: nx.ProtoAU2})
		srcs := make([]kernel.VA, count)
		for k := range srcs {
			srcs[k] = nxFill(p, 40+k, size)
		}
		nxWarm(x, p)
		start = p.P.Now()
		for _, src := range srcs {
			x.Csend(typ, src, size, 1, 0)
			sent++
		}
		doorbells = x.Stats.Doorbells
		x.Drain()
	})
	c.Spawn(1, "nx-slow", func(p *kernel.Process) {
		x := nx.New(c, p, 1, 2, nx.Config{Force: nx.ProtoAU2})
		nxWarm(x, p)
		dst := p.Alloc(size+8, hw.WordSize)
		recv := func(k int) {
			if got := x.Crecv(typ, dst, size); got != size {
				ck.failf("message %d: Crecv got %d bytes, want %d", k, got, size)
			}
			ck.payload(p, dst, 40+k, size, fmt.Sprintf("message %d", k))
		}
		for k := 0; k < early; k++ {
			recv(k)
		}
		for i := 0; i < steps; i++ {
			p.Compute(100 * time.Microsecond)
		}
		if sent <= nx.NumPkt {
			ck.failf("sender stopped at %d messages while the receiver computed: no doorbell returned the held credits", sent)
		}
		for k := early; k < count; k++ {
			recv(k)
		}
		end = p.P.Now()
		x.Drain()
	})
	if _, err := c.RunChecked(nxBudget); err != nil {
		return 0, 0, err
	}
	if ck.err == nil && doorbells == 0 {
		ck.failf("the sender never rang the doorbell")
	}
	return doorbells, end.Sub(start).Seconds() * 1e6, ck.err
}
