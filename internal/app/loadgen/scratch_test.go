package loadgen

import (
	"bytes"
	"encoding/binary"
	"testing"

	"shrimp/internal/app"
	"shrimp/internal/cluster"
)

// A sender's batch, request image and put values live in its sendScratch:
// once warm, popping and encoding a batch allocates nothing, and a reused
// value buffer marshals exactly as a fresh one would.
func TestSenderScratchAllocFree(t *testing.T) {
	cl := cluster.New(cluster.Config{MeshX: 2, MeshY: 1})
	defer cl.Shutdown()
	a, err := app.Start(cl, app.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Start(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	gw := g.gws[0]
	const target = 1
	var ops []gop
	for k := uint64(1); len(ops) < 8; k++ {
		s := a.Map.ShardOf(k)
		if a.Map.Shards[s].Primary != target {
			continue
		}
		op := gop{key: k, shard: uint16(s), kind: app.OpGet}
		if len(ops)%2 == 1 {
			op.kind, op.seq = app.OpPut, uint32(len(ops))
		}
		ops = append(ops, op)
	}
	var sc sendScratch
	round := func() {
		for _, op := range ops {
			gw.queues[target].push(op)
		}
		sc.batch = gw.popBatch(sc.batch, target)
		gw.encode(&sc)
	}
	// Enough rounds that the queue compacts in place at least once.
	for i := 0; i < 200; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("%v allocs per popped and encoded batch, want 0", allocs)
	}

	want := binary.LittleEndian.AppendUint32(nil, uint32(len(ops)))
	for _, op := range ops {
		var val []byte
		if op.kind == app.OpPut {
			val = make([]byte, valueBytes)
			binary.LittleEndian.PutUint64(val, op.key)
			binary.LittleEndian.PutUint32(val[8:], uint32(gw.idx))
			binary.LittleEndian.PutUint32(val[12:], op.seq)
		}
		want = appendWireOp(want, op, a.Map.Shards[op.shard].Epoch, val)
	}
	if !bytes.Equal(sc.img, want) {
		t.Fatalf("encoded image\n%x\nwant\n%x", sc.img, want)
	}
}
