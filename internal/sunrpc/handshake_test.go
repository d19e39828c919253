package sunrpc

import (
	"strings"
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/ether"
	"shrimp/internal/kernel"
	"shrimp/internal/vmmc"
)

// handshake runs a server body on node 1 and a client body on node 0.
// The client must return; a server left waiting for calls is fine.
func handshake(t *testing.T, server func(p *kernel.Process, s *Server), client func(cl *cluster.Cluster, p *kernel.Process, ep *vmmc.Endpoint)) {
	t.Helper()
	cl := cluster.Default()
	cl.Spawn(1, "server", func(p *kernel.Process) {
		server(p, NewServer(vmmc.Attach(p, cl.Node(1).Daemon), cl.Ether, 1, testProgram(t)))
	})
	done := false
	cl.Spawn(0, "client", func(p *kernel.Process) {
		client(cl, p, vmmc.Attach(p, cl.Node(0).Daemon))
		done = true
	})
	cl.Run()
	if !done {
		t.Fatal("client never finished")
	}
}

// TestAcceptForeignDatagram: a datagram at the binder port that is not a
// binding request is an error to accept, and the server goes on serving.
func TestAcceptForeignDatagram(t *testing.T) {
	handshake(t,
		func(p *kernel.Process, s *Server) {
			if err := s.accept(s.port.Recv(p.P)); err == nil {
				t.Error("a foreign datagram was accepted")
			}
			s.Serve(1)
		},
		func(cl *cluster.Cluster, p *kernel.Process, ep *vmmc.Endpoint) {
			port := cl.Ether.Bind(ether.Addr{Node: 0, Port: 9000})
			port.Send(p.P, ether.Addr{Node: 1, Port: BinderPort}, 64, "not a request")
			c, err := Dial(ep, cl.Ether, 1, progTest, versTest, ModeAU)
			if err != nil {
				t.Error(err)
				return
			}
			if err := c.Call(procNull, nil, nil); err != nil {
				t.Error(err)
			}
		})
}

func TestDialRefused(t *testing.T) {
	handshake(t,
		func(p *kernel.Process, s *Server) {
			// Take the name the server draws for its first ring, so its
			// export fails and it refuses the binding.
			if _, err := s.ep.Export(p.MapPages(1, 0), 1, vmmc.ExportOpts{Name: "sbl:1:s1"}); err != nil {
				t.Error(err)
				return
			}
			s.Serve(1)
		},
		func(cl *cluster.Cluster, _ *kernel.Process, ep *vmmc.Endpoint) {
			_, err := Dial(ep, cl.Ether, 1, progTest, versTest, ModeDU)
			if err == nil || !strings.HasPrefix(err.Error(), "sunrpc: bind: export: name \"sbl:1:s1\" already exported") {
				t.Errorf("Dial error %v, want the server's refusal", err)
			}
		})
}
