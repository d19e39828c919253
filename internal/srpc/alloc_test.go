package srpc

import (
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

// nullCalls runs null calls between the two nodes of a 2-node cluster: a
// one-word argument the server reads with ReadArgs and echoes back, which
// the client reads with ReadReply. Each side passes its previous buffer
// back in. The client warms up, then hands its round to measure, which
// must run it exactly rounds times.
func nullCalls(t testing.TB, rounds int, measure func(round func())) {
	t.Helper()
	const warm, port = 8, 600
	c := cluster.New(cluster.Config{MeshX: 2, MeshY: 1})
	defer c.Shutdown()
	up := false
	ready := sim.NewCond(c.Eng)
	finished := 0
	c.Spawn(1, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(1).Daemon)
		ln := Listen(ep, c.Ether, 1, port)
		up = true
		ready.Broadcast()
		b, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		var args []byte
		for i := 0; i < warm+rounds; i++ {
			proc, alen := b.NextCall()
			args = b.ReadArgs(args, alen)
			b.WriteResults(args)
			b.Finish(proc, len(args))
		}
		finished++
	})
	c.Spawn(0, "client", func(p *kernel.Process) {
		for !up {
			ready.Wait(p.P)
		}
		ep := vmmc.Attach(p, c.Node(0).Daemon)
		b, err := Bind(ep, c.Ether, 1, port, 0)
		if err != nil {
			t.Error(err)
			return
		}
		arg := []byte{1, 2, 3, 4}
		var reply []byte
		round := func() {
			rlen := b.Call(1, arg)
			reply = b.ReadReply(reply, rlen)
			if string(reply) != string(arg) {
				t.Fatalf("reply %v, want %v", reply, arg)
			}
		}
		for i := 0; i < warm; i++ {
			round()
		}
		measure(round)
		finished++
	})
	c.Run()
	if finished != 2 {
		t.Fatalf("only %d/2 processes finished", finished)
	}
}

// A steady-state null call allocates nothing on either side: ReadArgs and
// ReadReply read into the buffers their callers pass back.
func TestNullCallAllocFree(t *testing.T) {
	const runs = 20
	var allocs float64
	nullCalls(t, runs+1, func(round func()) {
		allocs = testing.AllocsPerRun(runs, round)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per null call, want 0", allocs)
	}
}

// BenchmarkNullCall times one null call round trip, client and server.
func BenchmarkNullCall(b *testing.B) {
	nullCalls(b, b.N, func(round func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
}
