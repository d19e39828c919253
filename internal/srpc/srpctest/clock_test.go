// Package srpctest holds a srpcgen-generated service used to test the
// specialized RPC system end to end (and by the examples).
package srpctest

import (
	"bytes"
	"go/format"
	"os"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/srpc"
	"shrimp/internal/vmmc"
)

// clockImpl is the test server implementation.
type clockImpl struct {
	total int64
	fills int
}

func (c *clockImpl) Now() (uint32, uint32) { return 12345, 678 }

func (c *clockImpl) Adjust(delta int32, scale float64) (bool, int64) {
	c.total += int64(float64(delta) * scale)
	return true, c.total
}

func (c *clockImpl) Null(data *srpc.Ref) {
	// A null procedure: touches nothing. The INOUT data still returns to
	// the client because the stub seeded it into the outgoing buffer.
}

func (c *clockImpl) Fill(value uint32, data *srpc.Ref) {
	// Writes through the reference propagate to the client by automatic
	// update as they happen.
	c.fills++
	n := data.Len()
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(value)
	}
	data.Store(0, buf)
}

func (c *clockImpl) Sum(data srpc.View) uint64 {
	var s uint64
	for _, b := range data.Bytes() {
		s += uint64(b)
	}
	return s
}

// run starts the Clock server on node 1 (serving `calls` calls) and the
// client body on node 0.
func run(t *testing.T, calls int, body func(c *ClockClient, p *kernel.Process)) *clockImpl {
	t.Helper()
	cl := cluster.Default()
	impl := &clockImpl{}
	up := false
	ready := sim.NewCond(cl.Eng)
	done := false
	cl.Spawn(1, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(1).Daemon)
		ln := srpc.Listen(ep, cl.Ether, 1, 600)
		up = true
		ready.Broadcast()
		b, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		ServeClock(b, impl, calls)
	})
	cl.Spawn(0, "client", func(p *kernel.Process) {
		for !up {
			ready.Wait(p.P)
		}
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		b, err := srpc.Bind(ep, cl.Ether, 1, 600, 0)
		if err != nil {
			t.Error(err)
			return
		}
		body(&ClockClient{B: b}, p)
		done = true
	})
	cl.Run()
	if !done {
		t.Fatal("client never finished (deadlock?)")
	}
	return impl
}

// TestGeneratedStubsCurrent regenerates the stubs from clock.idl and
// requires them, gofmt'd, to equal the committed clock_gen.go, so an edit
// to the generator's templates cannot leave the stubs stale. Regenerate
// with `go run ./cmd/srpcgen -pkg srpctest -o
// internal/srpc/srpctest/clock_gen.go internal/srpc/srpctest/clock.idl`
// and gofmt the result.
func TestGeneratedStubsCurrent(t *testing.T) {
	idl, err := os.ReadFile("clock.idl")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := srpc.ParseIDL(string(idl))
	if err != nil {
		t.Fatal(err)
	}
	code, err := srpc.Generate(svc, "srpctest")
	if err != nil {
		t.Fatal(err)
	}
	got, err := format.Source([]byte(code))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("clock_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("clock_gen.go is stale: regenerate it from clock.idl with srpcgen and gofmt")
	}
}

func TestScalarsOnly(t *testing.T) {
	run(t, 3, func(c *ClockClient, p *kernel.Process) {
		sec, usec := c.Now()
		if sec != 12345 || usec != 678 {
			t.Errorf("now = %d.%d", sec, usec)
		}
		ok, total := c.Adjust(10, 2.5)
		if !ok || total != 25 {
			t.Errorf("adjust -> %v %d", ok, total)
		}
		ok, total = c.Adjust(-4, 1.0)
		if !ok || total != 21 {
			t.Errorf("adjust 2 -> %v %d", ok, total)
		}
	})
}

func TestInOutBytesNull(t *testing.T) {
	run(t, 1, func(c *ClockClient, p *kernel.Process) {
		data := []byte("round and round the data goes")
		view := c.Null(data)
		if !bytes.Equal(view.Peek(), data) {
			t.Errorf("INOUT data did not return: %q", view.Peek())
		}
	})
}

func TestInOutBytesMutation(t *testing.T) {
	impl := run(t, 1, func(c *ClockClient, p *kernel.Process) {
		data := make([]byte, 1000)
		view := c.Fill(0xAB, data)
		got := view.Peek()
		if len(got) != 1000 {
			t.Fatalf("len %d", len(got))
		}
		for i, b := range got {
			if b != 0xAB {
				t.Fatalf("byte %d = %x", i, b)
			}
		}
	})
	if impl.fills != 1 {
		t.Fatalf("fills = %d", impl.fills)
	}
}

func TestInBytesByValue(t *testing.T) {
	run(t, 1, func(c *ClockClient, p *kernel.Process) {
		data := []byte{1, 2, 3, 4, 5}
		if got := c.Sum(data); got != 15 {
			t.Fatalf("sum = %d", got)
		}
	})
}

func TestManyCallsSequenceWrap(t *testing.T) {
	// Enough calls to exercise flag-sequence reuse on one binding.
	run(t, 300, func(c *ClockClient, p *kernel.Process) {
		for i := int32(1); i <= 300; i++ {
			ok, _ := c.Adjust(1, 1)
			if !ok {
				t.Fatalf("call %d failed", i)
			}
		}
	})
}

func TestNullCallLatency(t *testing.T) {
	// Paper Section 5: 9.5 us roundtrip for a null call with small
	// arguments; software overhead under 1 us (the rest is two one-word
	// AU transfers at 4.75 us each).
	var rt time.Duration
	run(t, 17, func(c *ClockClient, p *kernel.Process) {
		c.Now() // warm
		t0 := p.P.Now()
		for i := 0; i < 16; i++ {
			c.Now()
		}
		rt = p.P.Now().Sub(t0) / 16
	})
	us := rt.Seconds() * 1e6
	if us < 8.5 || us > 11.5 {
		t.Fatalf("null SRPC roundtrip %.2f us, paper 9.5", us)
	}
	t.Logf("null SRPC roundtrip: %.2f us (paper 9.5)", us)
}

// TestSequentialBindings: one listener serves two clients in turn, each
// with its own buffer pair (bindings are per-client, like URPC).
func TestSequentialBindings(t *testing.T) {
	cl := cluster.Default()
	served := 0
	cl.Spawn(3, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(3).Daemon)
		ln := srpc.Listen(ep, cl.Ether, 3, 700)
		for i := 0; i < 2; i++ {
			b, err := ln.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			ServeClock(b, &clockImpl{}, 3)
			served++
		}
	})
	for node := 0; node < 2; node++ {
		node := node
		cl.Spawn(node, "client", func(p *kernel.Process) {
			p.P.Sleep(time.Duration(node) * 10 * time.Millisecond)
			ep := vmmc.Attach(p, cl.Node(node).Daemon)
			b, err := srpc.Bind(ep, cl.Ether, 3, 700, 0)
			if err != nil {
				t.Error(err)
				return
			}
			c := &ClockClient{B: b}
			for i := 0; i < 3; i++ {
				if ok, _ := c.Adjust(int32(i), 1); !ok {
					t.Errorf("client %d call %d failed", node, i)
				}
			}
		})
	}
	cl.Run()
	if served != 2 {
		t.Fatalf("served %d/2 bindings", served)
	}
}
