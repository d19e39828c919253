package srpc

import (
	"strings"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/ether"
	"shrimp/internal/kernel"
	"shrimp/internal/vmmc"
)

const handshakePort = 600

// handshake runs a listener body on node 1 and a client body on node 0,
// and fails unless both return.
func handshake(t *testing.T, listener func(p *kernel.Process, ln *Listener), client func(cl *cluster.Cluster, p *kernel.Process, ep *vmmc.Endpoint)) {
	t.Helper()
	cl := cluster.Default()
	finished := 0
	cl.Spawn(1, "listener", func(p *kernel.Process) {
		listener(p, Listen(vmmc.Attach(p, cl.Node(1).Daemon), cl.Ether, 1, handshakePort))
		finished++
	})
	cl.Spawn(0, "client", func(p *kernel.Process) {
		client(cl, p, vmmc.Attach(p, cl.Node(0).Daemon))
		finished++
	})
	cl.Run()
	if finished != 2 {
		t.Fatalf("only %d/2 processes finished", finished)
	}
}

func TestAcceptForeignDatagram(t *testing.T) {
	handshake(t,
		func(_ *kernel.Process, ln *Listener) {
			if b, err := ln.Accept(); err == nil {
				t.Errorf("a foreign datagram was accepted as %v", b)
			}
		},
		func(cl *cluster.Cluster, p *kernel.Process, _ *vmmc.Endpoint) {
			port := cl.Ether.Bind(ether.Addr{Node: 0, Port: 9000})
			if m := port.Call(p.P, ether.Addr{Node: 1, Port: handshakePort}, 64, "not a request", 10*time.Millisecond); m != nil {
				t.Errorf("the listener answered a foreign datagram with %v", m.Payload)
			}
		})
}

func TestBindRefused(t *testing.T) {
	handshake(t,
		func(p *kernel.Process, ln *Listener) {
			// Take the name the listener draws for its ring (the
			// client's Bind draws sequence 1, the listener 2), so its
			// export fails and it refuses the binding.
			if _, err := ln.ep.Export(p.MapPages(1, 0), 1, vmmc.ExportOpts{Name: "srpc:1:000002"}); err != nil {
				t.Error(err)
				return
			}
			if _, err := ln.Accept(); err == nil {
				t.Error("Accept succeeded with its ring name taken")
			}
		},
		func(cl *cluster.Cluster, _ *kernel.Process, ep *vmmc.Endpoint) {
			_, err := Bind(ep, cl.Ether, 1, handshakePort, 0)
			if err == nil || !strings.HasPrefix(err.Error(), "srpc: bind: export: name \"srpc:1:000002\" already exported") {
				t.Errorf("Bind error %v, want the listener's refusal", err)
			}
		})
}

func TestBindClosedListener(t *testing.T) {
	handshake(t,
		func(_ *kernel.Process, ln *Listener) { ln.Port().Close() },
		func(cl *cluster.Cluster, _ *kernel.Process, ep *vmmc.Endpoint) {
			if _, err := Bind(ep, cl.Ether, 1, handshakePort, 50*time.Millisecond); err != ErrTimeout {
				t.Errorf("Bind error %v, want ErrTimeout", err)
			}
		})
}
