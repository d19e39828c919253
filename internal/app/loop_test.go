package app

import (
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/srpc"
	"shrimp/internal/vmmc"
)

func TestLoopbackBinding(t *testing.T) {
	cl := cluster.New(cluster.Config{MeshX: 2, MeshY: 1})
	a, err := Start(cl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	cl.Spawn(0, "cli", func(p *kernel.Process) {
		a.WaitReady(p.P)
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		// bind to the server on this same node
		b, err := srpc.Bind(ep, cl.Ether, 0, Port, 50*time.Millisecond)
		if err != nil {
			t.Errorf("self bind: %v", err)
			return
		}
		// simple put+get to a shard served by node 0 itself: the
		// rendezvous and call both traverse the loopback path
		var key uint64
		for k := uint64(1); k < 1<<20; k++ {
			s := a.Map.ShardOf(k)
			if a.Map.Shards[s].Primary == 0 {
				key = k
				break
			}
		}
		s := a.Map.ShardOf(key)
		req := []byte{2, 0, 0, 0}
		epoch := a.Map.Shards[s].Epoch
		req = AppendOp(req, OpPut, s, key, epoch, []byte("hello-world-1234"))
		req = AppendOp(req, OpGet, s, key, epoch, nil)
		rlen, err := b.CallTimeout(ProcBatch, req, 5*time.Millisecond)
		if err != nil {
			t.Errorf("self call: %v", err)
			return
		}
		reply := b.ReadReply(nil, rlen)
		c := &cursor{buf: reply}
		cnt, _ := c.u32()
		st1, _ := c.u32()
		st2, _ := c.u32()
		val, verr := c.bytes()
		if cnt != 2 || st1 != StatusOK || st2 != StatusOK || verr != nil || string(val) != "hello-world-1234" {
			t.Errorf("bad reply: cnt=%d st=%d,%d val=%q err=%v", cnt, st1, st2, val, verr)
			return
		}
		got = 1
	})
	if _, err := cl.RunChecked(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 1 {
		t.Fatal("workload did not complete")
	}
	cl.Shutdown()
}
