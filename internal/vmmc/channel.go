package vmmc

import (
	"errors"
	"fmt"
	"time"

	"shrimp/internal/ether"
	"shrimp/internal/kernel"
)

// Channel setup. The sockets, SunRPC and SHRIMP RPC libraries each open a
// connection once over the Ethernet and then move data only through a pair
// of VMMC mappings: each side exports a ring, imports the peer's, and binds
// an automatic-update shadow of the peer's ring in its own address space.
// Dial and Accept are the two halves of that handshake.

// ErrNoAnswer reports that Dial got no answer from the listener: the port
// closed, or the deadline passed. Each library turns it into its own error.
var ErrNoAnswer = errors.New("vmmc: channel listener did not answer")

// ErrNotRequest reports that Accept was handed a datagram that is not a
// channel request. It is returned wrapped, with the payload's type.
var ErrNotRequest = errors.New("vmmc: not a channel request")

// Channel is one end of an established pair of mappings.
type Channel struct {
	Out    *Import   // the peer's ring
	Shadow kernel.VA // local pages AU-bound to Out
	In     kernel.VA // the local ring, exported to the peer

	// Mode is the value the client passed in DialSpec.Mode.
	Mode int
}

// chanReq and chanResp are the handshake's two datagrams.
type chanReq struct {
	Node   int
	Region string // export name of the client's ring
	Mode   int
}

type chanResp struct {
	Err    string // nonempty: the listener refused
	Region string // export name of the listener's ring
}

// DialSpec is what a library passes to Dial.
type DialSpec struct {
	Eth   *ether.Network
	Reply ether.Addr // the client's reply port, bound for the handshake only
	To    ether.Addr // the listener
	Name  string     // export name of the local ring
	Pages int        // ring size of each direction, in pages
	Mode  int        // library-defined, handed to the listener
	// Deadline bounds the wait for the listener's answer; 0 means none.
	Deadline time.Duration
	// Refused prefixes the error returned for a listener's refusal.
	Refused string
}

// Dial is the client half of the handshake: map and export the local ring,
// bind the reply port, send the request and wait for the answer, import
// the listener's ring, then map and AU-bind the shadow. It returns
// ErrNoAnswer when no answer comes and a "Refused: reason" error when the
// listener refuses; a local failure is returned as is. The reply port is
// closed once the answer is in or the wait ends.
func (ep *Endpoint) Dial(s DialSpec) (*Channel, error) {
	p := ep.Proc
	ch := &Channel{In: p.MapPages(s.Pages, 0)}
	if _, err := ep.Export(ch.In, s.Pages, ExportOpts{Name: s.Name}); err != nil {
		return nil, err
	}
	port := s.Eth.Bind(s.Reply)
	reply := port.Call(p.P, s.To, 64+len(s.Name), chanReq{Node: p.M.ID, Region: s.Name, Mode: s.Mode}, s.Deadline)
	port.Close()
	if reply == nil {
		return nil, ErrNoAnswer
	}
	resp, ok := reply.Payload.(chanResp)
	if !ok {
		return nil, fmt.Errorf("%s: bad answer %T", s.Refused, reply.Payload)
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("%s: %s", s.Refused, resp.Err)
	}
	out, err := ep.Import(s.To.Node, resp.Region)
	if err != nil {
		return nil, err
	}
	if err := ep.wire(ch, out, s.Pages); err != nil {
		return nil, err
	}
	return ch, nil
}

// AcceptSpec is what a library passes to Accept.
type AcceptSpec struct {
	Port  *ether.Port // the listening port the request came in on
	Pages int         // ring size of each direction, in pages
	// Name draws the export name of the local ring, after the client's
	// ring is imported.
	Name func() string
	// Setup, if set, is the library's own setup of the wired channel; it
	// runs before the answer goes out.
	Setup func(*Channel)
}

// Accept is the listener half of the handshake for the request m: import
// the client's ring, map and export the local ring, map and AU-bind the
// shadow, run the library's setup, then answer. A failure after the
// request is understood is answered with a refusal and returned. A
// datagram that is not a request gets no answer and an ErrNotRequest.
func (ep *Endpoint) Accept(m *ether.Message, s AcceptSpec) (_ *Channel, err error) {
	req, ok := m.Payload.(chanReq)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrNotRequest, m.Payload)
	}
	p := ep.Proc
	defer func() {
		if err != nil {
			s.Port.Send(p.P, m.From, 64, chanResp{Err: err.Error()})
		}
	}()
	out, err := ep.Import(req.Node, req.Region)
	if err != nil {
		return nil, err
	}
	name := s.Name()
	ch := &Channel{In: p.MapPages(s.Pages, 0), Mode: req.Mode}
	if _, err := ep.Export(ch.In, s.Pages, ExportOpts{Name: name}); err != nil {
		return nil, err
	}
	if err := ep.wire(ch, out, s.Pages); err != nil {
		return nil, err
	}
	if s.Setup != nil {
		s.Setup(ch)
	}
	s.Port.Send(p.P, m.From, 64+len(name), chanResp{Region: name})
	return ch, nil
}

// wire maps the shadow of out and binds it for combined automatic update.
func (ep *Endpoint) wire(ch *Channel, out *Import, pages int) error {
	ch.Out = out
	ch.Shadow = ep.Proc.MapPages(pages, 0)
	_, err := ep.BindAU(ch.Shadow, out, 0, pages, AUOpts{Combine: true})
	return err
}
