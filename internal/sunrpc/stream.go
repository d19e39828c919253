// Package sunrpc implements a SunRPC (RFC 1057) compatible remote procedure
// call system — the paper's VRPC (Section 4.2). Only the runtime library is
// SHRIMP-specific; the message formats are standard SunRPC, so existing
// interfaces run unmodified.
//
// VRPC's two optimizations over stock SunRPC, both reproduced here:
//
//  1. the network layer is reimplemented on virtual memory-mapped
//     communication, and
//  2. the stream layer is folded directly into the XDR layer: XDR encoders
//     marshal straight into the communication buffer (an automatic-update
//     shadow or a deliberate-update staging area), so there is no copying
//     on the sending side.
//
// The communication between client and server is a pair of mappings forming
// a bidirectional stream: a cyclic shared queue in each direction whose
// control information is two reserved words — a flag and the total length
// written so far (paper Section 4.2, "Data Structures"). An acknowledgment
// word carries flow control for the reverse direction.
package sunrpc

import (
	"fmt"

	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/trace"
	"shrimp/internal/vmmc"
)

// Mode selects the data-transfer strategy for the sending side of a stream
// (the paper's Figure 5 variants).
type Mode int

const (
	// ModeAU marshals directly into an automatic-update shadow of the
	// ring: the store stream is the transfer (AU-1copy).
	ModeAU Mode = iota
	// ModeDU marshals into a word-aligned staging buffer, then moves each
	// record with a deliberate update (DU-1copy).
	ModeDU
)

func (m Mode) String() string {
	if m == ModeDU {
		return "DU-1copy"
	}
	return "AU-1copy"
}

// Ring geometry. Control words live after the data area.
const (
	ringBytes   = 64 << 10
	ctlFlag     = ringBytes     // stream-active flag
	ctlWritten  = ringBytes + 4 // cumulative bytes written (low 32 bits)
	ctlAck      = ringBytes + 8 // cumulative bytes consumed of the REVERSE stream
	ringRegion  = ringBytes + 16
	ringPages   = (ringRegion + hw.Page - 1) / hw.Page
	ackInterval = ringBytes / 4 // reader publishes consumption this often
)

// Stream is one endpoint of a bidirectional SBL stream: it writes the
// outgoing ring (via import) and reads the incoming ring (local export).
type Stream struct {
	ep   *vmmc.Endpoint
	mode Mode

	out       *vmmc.Import
	outShadow kernel.VA // AU shadow of the outgoing ring (control always, data in ModeAU)
	in        kernel.VA // local incoming ring

	staging kernel.VA // DU marshal area (ModeDU)
	staged  int

	sent     int // bytes written to the outgoing ring
	flushed  int // bytes made visible via the control word
	consumed int // bytes read from the incoming ring
	ackedPub int // last consumption count published to the peer
	ackSeen  int // cached copy of the peer's acknowledgment word

	// tc/track: the node's observability collector (nil-safe) and this
	// library's precomputed track name ("node3/sunrpc").
	tc    *trace.Collector
	track string
}

// newStream starts an endpoint on a wired channel: the staging area
// (ModeDU), then the stream-active flag.
func newStream(ep *vmmc.Endpoint, ch *vmmc.Channel, mode Mode) *Stream {
	p := ep.Proc
	s := &Stream{ep: ep, mode: mode, out: ch.Out, outShadow: ch.Shadow, in: ch.In,
		tc: p.M.Trace, track: p.M.Track("sunrpc")}
	if mode == ModeDU {
		s.staging = p.Alloc(ringBytes/2, hw.WordSize)
	}
	// Raise the stream-active flag.
	p.WriteWord(s.outShadow+kernel.VA(ctlFlag), 1)
	return s
}

// --- Sending side: xdr.Sink ---

// Write implements xdr.Sink: marshaled bytes go straight to the outgoing
// ring (ModeAU) or to the staging area (ModeDU). This is the fold of the
// stream layer into XDR.
func (s *Stream) Write(b []byte) {
	p := s.ep.Proc
	span := s.tc.Begin(s.track, "sbl.encode")
	defer span.End()
	s.tc.Count(s.track, "encode.bytes", int64(len(b)))
	switch s.mode {
	case ModeAU:
		s.waitSpace(len(b))
		for len(b) > 0 {
			pos := s.sent % ringBytes
			n := len(b)
			if room := ringBytes - pos; n > room {
				n = room
			}
			p.WriteBytes(s.outShadow+kernel.VA(pos), b[:n])
			s.sent += n
			b = b[n:]
		}
	case ModeDU:
		p.WriteBytes(s.staging+kernel.VA(s.staged), b)
		s.staged += len(b)
	}
}

// EndRecord completes one RPC message: ModeDU pushes the staged bytes with
// deliberate updates; both modes then publish the new written count (the
// control transfer, always by automatic update, ordered after the data).
func (s *Stream) EndRecord() error {
	p := s.ep.Proc
	s.tc.Count(s.track, "records", 1)
	span := s.tc.Begin(s.track, "sbl.push")
	defer span.End()
	if s.mode == ModeDU && s.staged > 0 {
		n := (s.staged + 3) &^ 3
		s.waitSpace(n)
		off := 0
		for off < n {
			pos := s.sent % ringBytes
			c := n - off
			if room := ringBytes - pos; c > room {
				c = room
			}
			if err := s.ep.Send(s.out, pos, s.staging+kernel.VA(off), c); err != nil {
				return fmt.Errorf("sunrpc: stream send: %w", err)
			}
			s.sent += c
			off += c
		}
		s.staged = 0
	}
	if s.sent != s.flushed {
		s.flushed = s.sent
		p.WriteWord(s.outShadow+kernel.VA(ctlWritten), uint32(s.flushed))
	}
	return nil
}

// waitSpace blocks until the outgoing ring has room for n more bytes. The
// peer's acknowledgment word is cached (kept in a register, in effect) and
// only re-read when the cached value is insufficient.
func (s *Stream) waitSpace(n int) {
	p := s.ep.Proc
	if n > ringBytes {
		//lint:allow transitive-panic framing invariant: a record larger than the ring can never drain; srpcgen-generated stubs bound record sizes
		panic("sunrpc: record exceeds ring")
	}
	if s.sent+n-s.ackSeen <= ringBytes {
		return
	}
	ackVA := s.in + kernel.VA(ctlAck)
	v := p.WaitWord(ackVA, func(v uint32) bool { return s.sent+n-int(v) <= ringBytes })
	s.ackSeen = int(v)
}

// --- Receiving side: xdr.Source ---

// Read implements xdr.Source: it blocks until n contiguous stream bytes are
// available and consumes them. Decoding happens in place; the copy charged
// is the CPU's touch of the data, not an extra buffering pass.
func (s *Stream) Read(n int) ([]byte, error) {
	p := s.ep.Proc
	span := s.tc.Begin(s.track, "sbl.decode")
	defer span.End()
	writtenVA := s.in + kernel.VA(ctlWritten)
	// Fast path: the bytes are already in the ring (the written count was
	// checked when this record was first noticed); no extra poll charge.
	if int(p.PeekWord(writtenVA))-s.consumed < n {
		p.WaitWord(writtenVA, func(v uint32) bool { return int(v)-s.consumed >= n })
	}
	out := make([]byte, n)
	for got := 0; got < n; {
		pos := s.consumed % ringBytes
		c := min(n-got, ringBytes-pos)
		p.ReadInto(s.in+kernel.VA(pos), out[got:got+c])
		got += c
		s.consumed += c
	}
	if s.consumed-s.ackedPub >= ackInterval {
		s.publishAck()
	}
	return out, nil
}

// ReadView implements xdr.ViewSource: it advances the stream like Read but
// returns the bytes without a buffering copy (only a flat touch is
// charged). Used by handlers that opt into the receiver-side zero-copy
// optimization; the view is valid until the next ring wrap, which the
// ring's flow control guarantees does not happen before EndReply.
func (s *Stream) ReadView(n int) ([]byte, error) {
	p := s.ep.Proc
	span := s.tc.Begin(s.track, "sbl.decode")
	defer span.End()
	writtenVA := s.in + kernel.VA(ctlWritten)
	if int(p.PeekWord(writtenVA))-s.consumed < n {
		p.WaitWord(writtenVA, func(v uint32) bool { return int(v)-s.consumed >= n })
	}
	p.P.Sleep(hw.WordTouchCost)
	out := make([]byte, n)
	for got := 0; got < n; {
		pos := s.consumed % ringBytes
		c := min(n-got, ringBytes-pos)
		p.PeekInto(s.in+kernel.VA(pos), out[got:got+c])
		got += c
		s.consumed += c
	}
	if s.consumed-s.ackedPub >= ackInterval {
		s.publishAck()
	}
	return out, nil
}

// Available reports whether at least one unconsumed byte is in the ring.
func (s *Stream) Available() bool {
	return int(s.ep.Proc.PeekWord(s.in+kernel.VA(ctlWritten))) > s.consumed
}

// WrittenVA returns the VA of the incoming written-count word, the address
// a server multiplexes its waits on.
func (s *Stream) WrittenVA() kernel.VA { return s.in + kernel.VA(ctlWritten) }

// publishAck tells the peer how much we have consumed (flow control),
// via automatic update like all control traffic.
func (s *Stream) publishAck() {
	s.ackedPub = s.consumed
	s.ep.Proc.WriteWord(s.outShadow+kernel.VA(ctlAck), uint32(s.consumed))
}

// EndReply is called by readers after fully decoding a message: publish
// consumption so the peer's flow control advances promptly.
func (s *Stream) EndReply() { s.publishAck() }
