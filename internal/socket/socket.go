// Package socket is a user-level stream sockets library on SHRIMP VMMC
// (paper Section 4.3), compatible with Unix stream-socket semantics:
// connection-oriented, reliable, byte-stream (no message boundaries).
//
// Structure, following the paper:
//
//   - Connection establishment uses a regular internet-domain socket on the
//     Ethernet to exchange the data required to establish two VMMC mappings
//     (one per direction). The paper holds the internet socket open to
//     detect a broken connection; nothing here watches it, so the port is
//     closed once the handshake's answer is in.
//   - Each direction is a circular buffer; incoming and outgoing state are
//     grouped by who has write access.
//   - Three protocol variants (Figure 7): DU-2copy (sender copies into a
//     staging area to avoid alignment trouble, then one deliberate update),
//     DU-1copy (deliberate update straight from user memory, falling back
//     to two copies when alignment dictates), and AU-2copy (the sender-side
//     copy into the bound circular buffer acts as the send).
//   - There is deliberately NO zero-copy variant: it would require exporting
//     a page of the receiver's user memory, which the sender could clobber
//     at will — unacceptable since the receiver does not trust the sender.
//     The receiver therefore always copies into user memory.
package socket

import (
	"errors"
	"fmt"
	"time"

	"shrimp/internal/ether"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
	"shrimp/internal/vmmc"
)

// Mode selects the send-side protocol variant.
type Mode int

const (
	// ModeAU2 copies user data into the AU-bound circular buffer; the
	// copy is the send.
	ModeAU2 Mode = iota
	// ModeDU1 sends directly from user memory with deliberate updates,
	// staging only when alignment requires.
	ModeDU1
	// ModeDU2 always stages, then sends with one deliberate update.
	ModeDU2
)

func (m Mode) String() string {
	switch m {
	case ModeDU1:
		return "DU-1copy"
	case ModeDU2:
		return "DU-2copy"
	default:
		return "AU-2copy"
	}
}

// ErrClosed is returned for operations on a closed connection, including to
// waiters that were parked in Send or Recv when Close ran.
var ErrClosed = errors.New("socket: connection closed")

// Ring geometry: a 32 KB circular buffer per direction plus control words
// written by the same writer as the data.
const (
	ringBytes  = 32 << 10
	ctlWritten = ringBytes     // cumulative bytes written
	ctlAck     = ringBytes + 4 // cumulative bytes consumed of the REVERSE direction
	ctlFin     = ringBytes + 8 // writer has closed its direction
	regionSize = ringBytes + 16
	ringPages  = (regionSize + hw.Page - 1) / hw.Page
)

// Library per-operation CPU costs: procedure calls, error checking, and
// socket data-structure access — the source of the ~13 us the paper
// measures above the hardware limit, "divided roughly equally between the
// sender and receiver".
const (
	sendEntryCost = 44 * hw.CallCost
	recvEntryCost = 14 * hw.CallCost
	// recvDeliverCost is charged after data arrives: size bookkeeping,
	// error checks, and buffer-pointer updates on the delivery path (it
	// cannot overlap the wire time, unlike the entry cost, which a
	// blocked receiver pays while waiting).
	recvDeliverCost = 32 * hw.CallCost
)

// Lib is a process's socket library instance.
type Lib struct {
	ep   *vmmc.Endpoint
	eth  *ether.Network
	node int
	mode Mode
	seq  int

	// tc/track: the node's observability collector (nil-safe) and this
	// library's precomputed track name ("node3/socket").
	tc    *trace.Collector
	track string
}

// New attaches the socket library to a process. mode picks the Figure 7
// protocol variant.
func New(ep *vmmc.Endpoint, eth *ether.Network, node int, mode Mode) *Lib {
	return &Lib{ep: ep, eth: eth, node: node, mode: mode,
		tc: ep.Proc.M.Trace, track: ep.Proc.M.Track("socket")}
}

// Listener accepts connections on an (internet-domain) port.
type Listener struct {
	lib  *Lib
	port *ether.Port
}

// Listen binds a listening socket on the given port number.
func (l *Lib) Listen(port int) *Listener {
	return &Listener{lib: l, port: l.eth.Bind(ether.Addr{Node: l.node, Port: port})}
}

// Accept blocks for a connection request, establishes the two mappings, and
// returns the connection.
func (ln *Listener) Accept() (*Conn, error) {
	l := ln.lib
	m := ln.port.Recv(l.ep.Proc.P)
	if m == nil {
		return nil, ErrClosed
	}
	var c *Conn
	_, err := l.ep.Accept(m, vmmc.AcceptSpec{Port: ln.port, Pages: ringPages,
		Name:  l.nextName,
		Setup: func(ch *vmmc.Channel) { c = l.newConn(ch) }})
	if errors.Is(err, vmmc.ErrNotRequest) {
		return nil, fmt.Errorf("socket: bad connect request %T", m.Payload)
	}
	return c, err
}

// Close shuts the listening socket.
func (ln *Listener) Close() { ln.port.Close() }

// Connect opens a connection to a listening socket on (node, port).
func (l *Lib) Connect(node, port int) (*Conn, error) {
	name := l.nextName()
	// Bounded connection establishment: a dead or absent listener shows
	// up as a refused connection, not a hang.
	ch, err := l.ep.Dial(vmmc.DialSpec{Eth: l.eth,
		Reply: ether.Addr{Node: l.node, Port: 40000 + l.seq},
		To:    ether.Addr{Node: node, Port: port},
		Name:  name, Pages: ringPages, Deadline: 100 * time.Millisecond,
		Refused: "socket: connect"})
	if err == vmmc.ErrNoAnswer {
		return nil, fmt.Errorf("socket: connect to %d:%d refused or timed out", node, port)
	}
	if err != nil {
		return nil, err
	}
	return l.newConn(ch), nil
}

// nextName draws the export name of a new connection's incoming ring.
func (l *Lib) nextName() string {
	l.seq++
	return fmt.Sprintf("sock:%d:%d", l.node, l.seq)
}

// newConn wraps a wired channel, adding the staging area the DU modes
// send through.
func (l *Lib) newConn(ch *vmmc.Channel) *Conn {
	p := l.ep.Proc
	c := &Conn{lib: l, out: ch.Out, outShadow: ch.Shadow, in: ch.In, mode: l.mode,
		closeCond: sim.NewCond(p.M.Eng)}
	if l.mode != ModeAU2 {
		c.staging = p.Alloc(ringBytes/2+8, hw.WordSize)
	}
	return c
}

// Conn is one endpoint of an established stream connection.
type Conn struct {
	lib  *Lib
	mode Mode

	out       *vmmc.Import
	outShadow kernel.VA
	in        kernel.VA
	staging   kernel.VA

	sent     int
	consumed int
	ackSeen  int
	ackPub   int
	tail     [4]byte // bytes of the partial word at the stream write head

	sendClosed bool
	recvClosed bool

	// closeCond wakes procs parked in Send/Recv when Close runs; closeGen
	// distinguishes waiters that were already blocked when the close
	// happened (they error with ErrClosed) from calls made after it (a
	// half-closed connection still drains: Recv after our own Close is
	// legal and returns buffered data, then EOF).
	closeCond *sim.Cond
	closeGen  int
}

// Send writes n bytes from va into the stream, blocking for buffer space as
// needed. It returns the number of bytes written (always n, unless the
// connection closes underneath).
func (c *Conn) Send(va kernel.VA, n int) (int, error) {
	p := c.lib.ep.Proc
	span := c.lib.tc.Begin(c.lib.track, "send")
	defer span.End()
	p.Compute(sendEntryCost)
	if c.sendClosed {
		return 0, ErrClosed
	}
	c.lib.tc.Count(c.lib.track, "send.bytes", int64(n))
	written := 0
	for written < n {
		chunk, err := c.waitSpace(n - written)
		if err != nil {
			return written, err
		}
		pos := c.sent % ringBytes
		if room := ringBytes - pos; chunk > room {
			chunk = room
		}
		src := va + kernel.VA(written)
		switch c.mode {
		case ModeAU2:
			// The copy into the bound circular buffer is the send
			// (automatic update has no alignment restriction).
			p.CopyVA(c.outShadow+kernel.VA(pos), src, chunk)
		case ModeDU1:
			// Deliberate update from user memory when source, ring
			// position and length are all word-aligned; otherwise the
			// "two-copy protocol when dictated by alignment".
			if src%hw.WordSize == 0 && pos%hw.WordSize == 0 && chunk >= hw.WordSize {
				chunk &^= 3 // ragged tail goes through staging next round
				if err := c.lib.ep.Send(c.out, pos, src, chunk); err != nil {
					return written, err
				}
			} else {
				if err := c.stageAndSend(src, pos, chunk); err != nil {
					return written, err
				}
			}
		case ModeDU2:
			if err := c.stageAndSend(src, pos, chunk); err != nil {
				return written, err
			}
		}
		c.sent += chunk
		written += chunk
		// Publish the new write count (control via automatic update,
		// after the data).
		p.WriteWord(c.outShadow+kernel.VA(ctlWritten), uint32(c.sent))
	}
	return written, nil
}

// stageAndSend handles alignment: the chunk is copied into the word-aligned
// staging buffer, prefixed by the partial word already sent at the current
// ring position (the library remembers those bytes — they are its own), and
// pushed with one deliberate update starting at the preceding word
// boundary. Trailing pad bytes land beyond the published write count, so
// the receiver never observes them; they are rewritten by the next send's
// prefix.
func (c *Conn) stageAndSend(src kernel.VA, pos, chunk int) error {
	p := c.lib.ep.Proc
	lead := pos % hw.WordSize
	if lead > 0 {
		p.Poke(c.staging, c.tail[:lead])
	}
	p.CopyVA(c.staging+kernel.VA(lead), src, chunk)
	padded := (lead + chunk + 3) &^ 3
	if err := c.lib.ep.Send(c.out, pos-lead, c.staging, padded); err != nil {
		return err
	}
	// Remember the bytes of the new partial word at the stream head.
	newTail := (pos + chunk) % hw.WordSize
	if newTail > 0 {
		start := lead + chunk - newTail
		p.PeekInto(c.staging+kernel.VA(start), c.tail[:newTail])
	}
	return nil
}

// waitSpace blocks until at least one byte of ring space is free, returning
// how many contiguous-in-count bytes may be written (up to want). The wait
// ends early — with an error — if the connection closes underneath the
// blocked sender.
func (c *Conn) waitSpace(want int) (int, error) {
	p := c.lib.ep.Proc
	free := ringBytes - (c.sent - c.ackSeen)
	if free <= 0 {
		wait := c.lib.tc.Begin(c.lib.track, "send.space-wait")
		ackVA := c.in + kernel.VA(ctlAck)
		gen := c.closeGen
		pred := func() bool {
			if c.closeGen != gen {
				return true
			}
			v := p.PeekWord(ackVA)
			if ringBytes-(c.sent-int(v)) > 0 {
				c.ackSeen = int(v)
				return true
			}
			return false
		}
		p.WaitPred([]kernel.VA{ackVA}, []*sim.Cond{c.closeCond}, 0, pred)
		wait.End()
		if c.closeGen != gen {
			return 0, ErrClosed
		}
		free = ringBytes - (c.sent - c.ackSeen)
	}
	if want > free {
		want = free
	}
	return want, nil
}

// Recv reads up to n bytes into va, blocking until at least one byte is
// available. Returns 0, nil at end of stream (peer closed and drained).
func (c *Conn) Recv(va kernel.VA, n int) (int, error) {
	p := c.lib.ep.Proc
	span := c.lib.tc.Begin(c.lib.track, "recv")
	defer span.End()
	p.Compute(recvEntryCost)
	if c.recvClosed {
		return 0, ErrClosed
	}
	writtenVA := c.in + kernel.VA(ctlWritten)
	finVA := c.in + kernel.VA(ctlFin)
	avail := int(p.PeekWord(writtenVA)) - c.consumed
	gen := c.closeGen
	for avail == 0 {
		if p.PeekWord(finVA) != 0 {
			return 0, nil // clean EOF
		}
		if c.closeGen != gen {
			return 0, ErrClosed // Close ran while we were parked here
		}
		pred := func() bool {
			return int(p.PeekWord(writtenVA))-c.consumed > 0 ||
				p.PeekWord(finVA) != 0 || c.closeGen != gen
		}
		p.WaitPred([]kernel.VA{writtenVA, finVA}, []*sim.Cond{c.closeCond}, 0, pred)
		avail = int(p.PeekWord(writtenVA)) - c.consumed
	}
	if avail > n {
		avail = n
	}
	p.Compute(recvDeliverCost)
	// The receive-side copy into user memory — mandatory in the sockets
	// trust model.
	got := 0
	for got < avail {
		pos := c.consumed % ringBytes
		chunk := avail - got
		if room := ringBytes - pos; chunk > room {
			chunk = room
		}
		p.CopyVA(va+kernel.VA(got), c.in+kernel.VA(pos), chunk)
		c.consumed += chunk
		got += chunk
	}
	c.lib.tc.Count(c.lib.track, "recv.bytes", int64(got))
	// Return buffer space to the sender once a quarter ring has been
	// drained (or the ring was near-full).
	if c.consumed-c.ackPub >= ringBytes/4 {
		c.publishAck()
	}
	return got, nil
}

// publishAck reports consumption to the peer.
func (c *Conn) publishAck() {
	c.ackPub = c.consumed
	c.lib.ep.Proc.WriteWord(c.outShadow+kernel.VA(ctlAck), uint32(c.consumed))
}

// Close shuts down this endpoint's sending direction and releases the
// internet-domain socket.
func (c *Conn) Close() error {
	p := c.lib.ep.Proc
	if c.sendClosed {
		return ErrClosed
	}
	c.sendClosed = true
	c.closeGen++
	c.publishAck()
	p.WriteWord(c.outShadow+kernel.VA(ctlFin), 1)
	// Wake anything parked in Send or Recv: waiters blocked at close time
	// get ErrClosed instead of leaking as parked procs.
	c.closeCond.Broadcast()
	return nil
}

// RecvAll keeps receiving until exactly n bytes have arrived or the stream
// ends; a convenience for request/response protocols over the byte stream.
func (c *Conn) RecvAll(va kernel.VA, n int) (int, error) {
	got := 0
	for got < n {
		m, err := c.Recv(va+kernel.VA(got), n-got)
		if err != nil {
			return got, err
		}
		if m == 0 {
			return got, nil
		}
		got += m
	}
	return got, nil
}

// Mode reports the connection's protocol variant.
func (c *Conn) Mode() Mode { return c.mode }
