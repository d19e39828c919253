package sunrpc

import (
	"fmt"

	"shrimp/internal/ether"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
	"shrimp/internal/xdr"
)

// BinderPort is the well-known Ethernet port where servers accept binding
// requests — the portmapper role: bindings are established over the
// conventional network, then all calls travel over VMMC streams.
const BinderPort = 111

// Handler implements one remote procedure: decode arguments from d, write
// results to e. Returning an error produces a GARBAGE_ARGS reply (the
// decode failed); handlers encode application-level errors in their result
// types, as SunRPC programs do.
type Handler func(d *xdr.Decoder, e *xdr.Encoder) error

// Program is a (program, version) pair with its procedures.
type Program struct {
	Prog  uint32
	Vers  uint32
	Procs map[uint32]Handler
}

// Server serves SunRPC programs over SBL streams.
type Server struct {
	ep       *vmmc.Endpoint
	node     int
	programs []*Program
	port     *ether.Port
	sessions []*session
	nextSess int

	// Stats for tests.
	Calls int64
}

type session struct {
	stream *Stream
}

// NewServer creates a server listening for bindings on the node's binder
// port.
func NewServer(ep *vmmc.Endpoint, eth *ether.Network, node int, programs ...*Program) *Server {
	return &Server{
		ep:       ep,
		node:     node,
		programs: programs,
		port:     eth.Bind(ether.Addr{Node: node, Port: BinderPort}),
	}
}

// Serve runs the dispatch loop: accept bindings, decode calls, run
// handlers, send replies. It returns after handling `limit` calls
// (limit <= 0 means run forever, i.e. until the simulation drains).
func (s *Server) Serve(limit int64) {
	p := s.ep.Proc
	for limit <= 0 || s.Calls < limit {
		if m := s.port.TryRecv(); m != nil {
			// A failed binding was refused to its client, or was
			// not a request; the server keeps serving either way.
			s.accept(m)
			continue
		}
		progressed := false
		for _, sess := range s.sessions {
			if sess.stream.Available() {
				s.dispatch(sess)
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// Idle: wait for a new binding or stream activity.
		var vas []kernel.VA
		for _, sess := range s.sessions {
			vas = append(vas, sess.stream.WrittenVA())
		}
		p.WaitPred(vas, []*sim.Cond{s.port.Cond()}, 0, func() bool {
			if s.port.Pending() > 0 {
				return true
			}
			for _, sess := range s.sessions {
				if sess.stream.Available() {
					return true
				}
			}
			return false
		})
	}
}

// accept establishes a new binding: import the client's ring, export
// ours, and start a session on the stream. A datagram that is not a
// binding request is dropped.
func (s *Server) accept(m *ether.Message) error {
	_, err := s.ep.Accept(m, vmmc.AcceptSpec{Port: s.port, Pages: ringPages,
		Name: func() string {
			s.nextSess++
			return fmt.Sprintf("sbl:%d:s%d", s.node, s.nextSess)
		},
		Setup: func(ch *vmmc.Channel) {
			s.sessions = append(s.sessions, &session{stream: newStream(s.ep, ch, Mode(ch.Mode))})
		}})
	return err
}

// dispatch handles one call from a session.
func (s *Server) dispatch(sess *session) {
	p := s.ep.Proc
	dec := xdr.NewDecoder(sess.stream)
	var hdr callHeader
	if err := hdr.DecodeXDR(dec); err != nil {
		// A header we cannot parse leaves the stream unframed; in the
		// real system the connection would be torn down.
		//lint:allow transitive-panic unframed stream is unrecoverable; connection teardown is not modeled
		panic(fmt.Sprintf("sunrpc: undecodable call header: %v", err))
	}
	// Header processing: dispatch table lookup, auth check (paper: "5-6
	// usecs in processing the header").
	p.Compute(8 * hw.CallCost)

	answer(s.programs, &hdr, dec, xdr.NewEncoder(sess.stream))
	sess.stream.EndReply() // publish consumption of the request
	if err := sess.stream.EndRecord(); err != nil {
		//lint:allow transitive-panic reply already streamed; a send failure here means the client revoked its buffers mid-call
		panic(fmt.Sprintf("sunrpc: reply: %v", err))
	}
	s.Calls++
}
