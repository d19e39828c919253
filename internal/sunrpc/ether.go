package sunrpc

import (
	"fmt"
	"time"

	"shrimp/internal/ether"
	"shrimp/internal/hw"
	"shrimp/internal/vmmc"
	"shrimp/internal/xdr"
)

// Conventional-network transport: SunRPC over UDP datagrams on the 10 Mb/s
// Ethernet, through the kernel protocol stack. This is the baseline the
// paper's claim "RPC can be made several times faster than it is on
// conventional networks" is measured against. Wire format is the same XDR
// byte stream; the kernel stack also copies the data on both sides.

// EtherServerPort is the well-known UDP port for the baseline server.
const EtherServerPort = 112

// EtherServer serves programs over the Ethernet.
type EtherServer struct {
	ep       *vmmc.Endpoint
	programs []*Program
	port     *ether.Port

	// Calls counts handled requests.
	Calls int64
}

// NewEtherServer binds the baseline server on a node.
func NewEtherServer(ep *vmmc.Endpoint, eth *ether.Network, node int, programs ...*Program) *EtherServer {
	return &EtherServer{ep: ep, programs: programs,
		port: eth.Bind(ether.Addr{Node: node, Port: EtherServerPort})}
}

// Serve handles requests until `limit` calls (<= 0: forever).
func (s *EtherServer) Serve(limit int64) {
	p := s.ep.Proc
	for limit <= 0 || s.Calls < limit {
		m := s.port.Recv(p.P)
		if m == nil {
			return
		}
		wire, ok := m.Payload.([]byte)
		if !ok {
			continue
		}
		// Kernel handed us the datagram; the user-level copy out of the
		// socket buffer is charged here.
		p.Compute(copyCost(len(wire)))
		dec := xdr.NewDecoder(&xdr.BufferSource{Buf: wire})
		var hdr callHeader
		if err := hdr.DecodeXDR(dec); err != nil {
			continue // undecodable datagram: drop, as UDP servers do
		}
		p.Compute(20 * hw.CallCost)
		sink := &xdr.BufferSink{}
		answer(s.programs, &hdr, dec, xdr.NewEncoder(sink))
		// Marshal into the socket buffer (the kernel copies again
		// internally; that cost is inside ether's stack cost).
		p.Compute(copyCost(len(sink.Buf)))
		s.port.Send(p.P, m.From, len(sink.Buf), sink.Buf)
		s.Calls++
	}
}

// copyCost is the CPU time of a user-level memcpy of n bytes.
func copyCost(n int) time.Duration { return time.Duration(n) * hw.MemCopyPerByte }

// EtherClient is the baseline client.
type EtherClient struct {
	ep    *vmmc.Endpoint
	eth   *ether.Network
	port  *ether.Port
	saddr ether.Addr
	prog  uint32
	vers  uint32
	xid   uint32
}

// DialEther creates a baseline client of (prog, vers) on serverNode.
func DialEther(ep *vmmc.Endpoint, eth *ether.Network, serverNode int, prog, vers uint32) (*EtherClient, error) {
	port := eth.Bind(ether.Addr{Node: ep.Proc.M.ID, Port: 30000 + eth.NameSeq()})
	return &EtherClient{ep: ep, eth: eth, port: port,
		saddr: ether.Addr{Node: serverNode, Port: EtherServerPort}, prog: prog, vers: vers}, nil
}

// Call performs one RPC over the Ethernet.
func (c *EtherClient) Call(proc uint32, args func(*xdr.Encoder), results func(*xdr.Decoder) error) error {
	p := c.ep.Proc
	p.Compute(30 * hw.CallCost)
	c.xid++
	sink := &xdr.BufferSink{}
	encodeCall(xdr.NewEncoder(sink), &callHeader{XID: c.xid, Prog: c.prog, Vers: c.vers,
		Proc: proc, Cred: OpaqueAuth{Flavor: AuthNone}, Verf: OpaqueAuth{Flavor: AuthNone}}, args)
	// Copy into the socket buffer.
	p.Compute(copyCost(len(sink.Buf)))
	reply := c.port.Call(p.P, c.saddr, len(sink.Buf), sink.Buf, 0)
	if reply == nil {
		return fmt.Errorf("sunrpc: ether transport closed")
	}
	wire := reply.Payload.([]byte)
	p.Compute(copyCost(len(wire)))
	if err := decodeReply(xdr.NewDecoder(&xdr.BufferSource{Buf: wire}), c.xid, results); err != nil {
		return err
	}
	p.Compute(8 * hw.CallCost)
	return nil
}
