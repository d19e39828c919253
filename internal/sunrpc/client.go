package sunrpc

import (
	"fmt"

	"shrimp/internal/ether"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/vmmc"
	"shrimp/internal/xdr"
)

// Client is a SunRPC client bound to one server program over an SBL stream.
type Client struct {
	ep     *vmmc.Endpoint
	stream *Stream
	prog   uint32
	vers   uint32
	xid    uint32
}

// Dial binds to a server's binder port over the Ethernet, establishing the
// pair of VMMC mappings that form the stream, and returns a client for
// (prog, vers). mode selects the Figure 5 transfer variant.
func Dial(ep *vmmc.Endpoint, eth *ether.Network, serverNode int, prog, vers uint32, mode Mode) (*Client, error) {
	p := ep.Proc
	seq := eth.NameSeq()
	ch, err := ep.Dial(vmmc.DialSpec{Eth: eth,
		Reply: ether.Addr{Node: p.M.ID, Port: 20000 + seq},
		To:    ether.Addr{Node: serverNode, Port: BinderPort},
		Name:  fmt.Sprintf("sbl:c%d:%06d", p.M.ID, seq),
		Pages: ringPages, Mode: int(mode), Refused: "sunrpc: bind"})
	if err == vmmc.ErrNoAnswer {
		return nil, fmt.Errorf("sunrpc: server %d unreachable", serverNode)
	}
	if err != nil {
		return nil, err
	}
	return &Client{ep: ep, stream: newStream(ep, ch, mode), prog: prog, vers: vers}, nil
}

// Call invokes a remote procedure: args encodes the parameters, results
// decodes the reply body. Either may be nil for void. The call blocks until
// the reply is decoded (SunRPC clients are synchronous).
func (c *Client) Call(proc uint32, args func(*xdr.Encoder), results func(*xdr.Decoder) error) error {
	p := c.ep.Proc
	// RPCLIB call path: stub entry, xid assignment, timeout arming
	// (paper: "about 7 usecs preparing the header and making the call" —
	// the rest of that budget is the header marshal itself).
	p.Compute(16 * hw.CallCost)
	c.xid++
	encodeCall(xdr.NewEncoder(c.stream), &callHeader{XID: c.xid, Prog: c.prog, Vers: c.vers,
		Proc: proc, Cred: OpaqueAuth{Flavor: AuthNone}, Verf: OpaqueAuth{Flavor: AuthNone}}, args)
	if err := c.stream.EndRecord(); err != nil {
		return err
	}
	if err := decodeReply(xdr.NewDecoder(c.stream), c.xid, results); err != nil {
		return err
	}
	c.stream.EndReply()
	// Return-from-call processing (paper: "1-2 usecs in returning from
	// the call").
	p.Compute(4 * hw.CallCost)
	return nil
}

// Proc returns the owning process (for examples and tests).
func (c *Client) Proc() *kernel.Process { return c.ep.Proc }
