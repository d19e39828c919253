package socket

import (
	"strings"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/ether"
	"shrimp/internal/kernel"
	"shrimp/internal/vmmc"
)

// handshake runs a listener body on node 1 and a client body on node 0,
// and fails unless both return.
func handshake(t *testing.T, listener func(cl *cluster.Cluster, p *kernel.Process, lib *Lib), client func(cl *cluster.Cluster, p *kernel.Process, lib *Lib)) {
	t.Helper()
	cl := cluster.Default()
	finished := 0
	for node, body := range []func(*cluster.Cluster, *kernel.Process, *Lib){client, listener} {
		cl.Spawn(node, []string{"client", "listener"}[node], func(p *kernel.Process) {
			body(cl, p, New(vmmc.Attach(p, cl.Node(node).Daemon), cl.Ether, node, ModeDU2))
			finished++
		})
	}
	cl.Run()
	if finished != 2 {
		t.Fatalf("only %d/2 processes finished", finished)
	}
}

func TestAcceptForeignDatagram(t *testing.T) {
	handshake(t,
		func(_ *cluster.Cluster, _ *kernel.Process, lib *Lib) {
			c, err := lib.Listen(5000).Accept()
			if err == nil {
				t.Errorf("a foreign datagram was accepted as %v", c)
			} else if want := "socket: bad connect request string"; err.Error() != want {
				t.Errorf("Accept error %q, want %q", err, want)
			}
		},
		func(cl *cluster.Cluster, p *kernel.Process, _ *Lib) {
			port := cl.Ether.Bind(ether.Addr{Node: 0, Port: 9000})
			if m := port.Call(p.P, ether.Addr{Node: 1, Port: 5000}, 64, "not a request", 10*time.Millisecond); m != nil {
				t.Errorf("the listener answered a foreign datagram with %v", m.Payload)
			}
		})
}

func TestConnectRefused(t *testing.T) {
	handshake(t,
		func(_ *cluster.Cluster, p *kernel.Process, lib *Lib) {
			// Take the name the listener draws for its first ring, so
			// its export fails and it refuses the connection.
			if _, err := lib.ep.Export(p.MapPages(1, 0), 1, vmmc.ExportOpts{Name: "sock:1:1"}); err != nil {
				t.Error(err)
				return
			}
			if _, err := lib.Listen(5000).Accept(); err == nil {
				t.Error("Accept succeeded with its ring name taken")
			}
		},
		func(_ *cluster.Cluster, _ *kernel.Process, lib *Lib) {
			_, err := lib.Connect(1, 5000)
			if err == nil || !strings.HasPrefix(err.Error(), "socket: connect: export: name \"sock:1:1\" already exported") {
				t.Errorf("Connect error %v, want the listener's refusal", err)
			}
		})
}
