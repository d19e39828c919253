package app

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/srpc"
	"shrimp/internal/vmmc"
)

// hugeCount is an op or record count no image can hold.
const hugeCount = 1<<32 - 1

func TestDecodeBatch(t *testing.T) {
	img := binary.LittleEndian.AppendUint32(nil, 3)
	img = AppendOp(img, OpGet, 7, 11, 2, nil)
	img = AppendOp(img, OpPut, 8, 12, 3, []byte("value"))
	img = AppendOp(img, OpGet, 9, 13, 4, nil)
	// The meta word's reserved byte (bits 16-23) is ignored on decode.
	img[4+2] = 1
	want := []wireOp{
		{Kind: OpGet, Shard: 7, Key: 11, Epoch: 2},
		{Kind: OpPut, Shard: 8, Key: 12, Epoch: 3, Val: []byte("value")},
		{Kind: OpGet, Shard: 9, Key: 13, Epoch: 4},
	}
	ops, err := decodeBatch(img, make([]wireOp, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(ops, want, wireOpEqual) {
		t.Fatalf("decoded %+v, want %+v", ops, want)
	}

	// A count the image cannot hold is refused before anything is sized
	// by it; so is a count one op short of its image.
	for _, bad := range [][]byte{
		nil,
		{1, 2},
		binary.LittleEndian.AppendUint32(nil, hugeCount),
		append(binary.LittleEndian.AppendUint32(nil, hugeCount), img[4:]...),
		append(binary.LittleEndian.AppendUint32(nil, 4), img[4:]...),
		img[:len(img)-4],
	} {
		ops, err := decodeBatch(bad, nil)
		if err == nil || len(ops) != 0 || cap(ops) > len(want) {
			t.Fatalf("%x: decoded %d ops (cap %d), err %v; want an error and no ops", bad, len(ops), cap(ops), err)
		}
	}
}

func wireOpEqual(a, b wireOp) bool {
	return a.Kind == b.Kind && a.Shard == b.Shard &&
		a.Key == b.Key && a.Epoch == b.Epoch && slices.Equal(a.Val, b.Val)
}

func TestDecodeRepl(t *testing.T) {
	recs := []replRec{
		{Shard: 1, Key: 2, Epoch: 3, Ver: 4, Val: []byte("abc")},
		{Shard: 5, Key: 6, Epoch: 7, Ver: 8},
	}
	img := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)))
	img = binary.LittleEndian.AppendUint32(img, replModeMerge)
	for _, r := range recs {
		img = appendReplRec(img, r)
	}
	mode, got, err := decodeRepl(img, nil)
	if err != nil || mode != replModeMerge || !slices.EqualFunc(got, recs, replRecEqual) {
		t.Fatalf("decoded mode %d %+v err %v, want mode %d %+v", mode, got, err, replModeMerge, recs)
	}

	// A truncated last record returns the records before it.
	_, got, err = decodeRepl(img[:len(img)-4], got)
	if err == nil || !slices.EqualFunc(got, recs[:1], replRecEqual) {
		t.Fatalf("truncated image: %+v err %v, want the first record and an error", got, err)
	}
	// A bad header, an unknown mode or an impossible count returns none.
	huge := binary.LittleEndian.AppendUint32(nil, hugeCount)
	for _, bad := range [][]byte{
		nil,
		img[:6],
		append(slices.Clone(img[:4]), 9, 0, 0, 0),
		append(append(slices.Clone(huge), 0, 0, 0, 0), img[8:]...),
	} {
		_, got, err := decodeRepl(bad, nil)
		if err == nil || len(got) != 0 || cap(got) > len(recs) {
			t.Fatalf("%x: decoded %d records (cap %d), err %v; want an error and none", bad, len(got), cap(got), err)
		}
	}
}

func replRecEqual(a, b replRec) bool {
	return a.Shard == b.Shard && a.Key == b.Key && a.Epoch == b.Epoch &&
		a.Ver == b.Ver && slices.Equal(a.Val, b.Val)
}

// batchRig starts the serving subsystem on a 2-node cluster and runs body
// in a client process on node 0, bound to node 1's batch server, with
// keys that hash to shards node 1 leads.
func batchRig(t testing.TB, nkeys int, body func(a *App, b *srpc.Binding, keys []uint64)) {
	t.Helper()
	cl := cluster.New(cluster.Config{MeshX: 2, MeshY: 1})
	defer cl.Shutdown()
	a, err := Start(cl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	for k := uint64(1); len(keys) < nkeys; k++ {
		if a.Map.Shards[a.Map.ShardOf(k)].Primary == 1 {
			keys = append(keys, k)
		}
	}
	done := false
	cl.Spawn(0, "cli", func(p *kernel.Process) {
		a.WaitReady(p.P)
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		b, err := srpc.Bind(ep, cl.Ether, 1, Port, 50*time.Millisecond)
		if err != nil {
			t.Error(err)
			return
		}
		body(a, b, keys)
		done = true
	})
	cl.Run()
	if !done {
		t.Fatal("client did not finish")
	}
}

// batchImage marshals one op of kind per key.
func batchImage(a *App, kind int, keys []uint64) []byte {
	img := binary.LittleEndian.AppendUint32(nil, uint32(len(keys)))
	for _, k := range keys {
		s := a.Map.ShardOf(k)
		var val []byte
		if kind == OpPut {
			val = binary.LittleEndian.AppendUint64(make([]byte, 0, 16), k)[:16]
		}
		img = AppendOp(img, kind, s, k, a.Map.Shards[s].Epoch, val)
	}
	return img
}

// A batch claiming more ops than its image holds gets the empty reply
// before the server sizes anything by the count, and leaves the store as
// it was. The binding stays usable.
func TestHugeCountBatchRejected(t *testing.T) {
	batchRig(t, 2, func(a *App, b *srpc.Binding, keys []uint64) {
		call := func(img []byte) int {
			rlen, err := b.CallTimeout(ProcBatch, img, a.Cfg.CallDeadline)
			if err != nil {
				t.Errorf("call: %v", err)
			}
			return rlen
		}
		if rlen := call(batchImage(a, OpPut, keys[:1])); rlen == 0 {
			t.Error("seed put refused")
			return
		}
		before := StoreLens(a)
		// A bare count, then a count in front of a well-formed put of a
		// key not yet stored.
		put := batchImage(a, OpPut, keys[1:])
		huge := binary.LittleEndian.AppendUint32(nil, hugeCount)
		for _, img := range [][]byte{huge, append(huge, put[4:]...)} {
			if rlen := call(img); rlen != 0 {
				t.Errorf("%d-byte huge-count batch got a %d-byte reply, want none", len(img), rlen)
			}
		}
		if after := StoreLens(a); !slices.Equal(before, after) {
			t.Errorf("store changed: %v -> %v", before, after)
		}
		if _, ok := a.Lookup(keys[1]); ok {
			t.Error("a put behind a huge count was applied")
		}
		if rlen := call(batchImage(a, OpGet, keys[:1])); rlen == 0 {
			t.Error("binding unusable after the rejected batches")
		}
	})
}

// getBatches stores 16 keys on node 1, then hands measure a round that
// gets all 16 in one batch and checks every reply.
func getBatches(t testing.TB, measure func(round func())) {
	const ops, warm = 16, 8
	batchRig(t, ops, func(a *App, b *srpc.Binding, keys []uint64) {
		var reply []byte
		call := func(img []byte) {
			rlen, err := b.CallTimeout(ProcBatch, img, a.Cfg.CallDeadline)
			if err != nil {
				t.Errorf("call: %v", err)
			}
			reply = b.ReadReply(reply, rlen)
		}
		call(batchImage(a, OpPut, keys))
		get := batchImage(a, OpGet, keys)
		round := func() {
			call(get)
			c := cursor{buf: reply}
			if n, err := c.u32(); err != nil || n != ops {
				t.Errorf("reply count %d (%v), want %d", n, err, ops)
				return
			}
			for i := 0; i < ops; i++ {
				st, _ := c.u32()
				v, err := c.bytes()
				if st != StatusOK || err != nil || binary.LittleEndian.Uint64(v) != keys[i] {
					t.Errorf("get %d: status %d, value %x (%v)", i, st, v, err)
					return
				}
			}
		}
		for i := 0; i < warm; i++ {
			round()
		}
		measure(round)
	})
}

// A steady-state batch of 16 gets allocates nothing, on the server and
// the client alike: the argument image, the decoded ops, the per-op
// verdicts and the reply all live in reused scratch.
func TestServeBatchAllocFree(t *testing.T) {
	const runs = 20
	var allocs float64
	getBatches(t, func(round func()) {
		allocs = testing.AllocsPerRun(runs, round)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per 16-get batch, want 0", allocs)
	}
}

// BenchmarkServeBatch times one 16-get batch round trip, from the client's
// call through serveBatch to the client's read of the reply.
func BenchmarkServeBatch(b *testing.B) {
	getBatches(b, func(round func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
}
