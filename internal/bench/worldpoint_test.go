package bench

import (
	"runtime"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/nx"
)

// worldPoint is one figure point as the sweeps run it: a fresh 4-node
// world, a 4 B default-protocol NX ping-pong at 8 round trips, shut down.
// Most of its host cost is building the world, not the round trips.
func worldPoint(tb testing.TB) {
	if us, _ := NXPingPong(nx.ProtoDefault, 4, 8); !(us > 0) {
		tb.Fatalf("NX 4 B point: latency %v us", us)
	}
}

// meshWorldNodes is the 64-node world's size: perfbench's mesh-scale
// geometry.
const meshWorldNodes = 64

// meshWorld builds a 4x4x4 combining world, boots NX (lazy connections) on
// every node, runs one Gsync and shuts the world down.
func meshWorld(tb testing.TB) {
	c := cluster.New(cluster.Config{MeshDims: []int{4, 4, 4}, Combining: true})
	defer c.Shutdown()
	synced := 0
	for i := 0; i < meshWorldNodes; i++ {
		c.Spawn(i, "mesh", func(p *kernel.Process) {
			x := nx.New(c, p, i, meshWorldNodes, nx.Config{Lazy: true})
			x.Gsync()
			synced++
		})
	}
	if _, err := c.RunChecked(time.Second); err != nil {
		tb.Fatal(err)
	}
	if synced != meshWorldNodes {
		tb.Fatalf("%d of %d nodes passed the Gsync", synced, meshWorldNodes)
	}
}

func BenchmarkWorldPoint(b *testing.B) {
	worldPoint(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worldPoint(b)
	}
}

func BenchmarkMeshWorld(b *testing.B) {
	meshWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meshWorld(b)
	}
}

// allocsOf runs build twice and returns the bytes and objects the second
// run allocated: the first leaves its frames and table chunks on mem's free
// lists and its coroutines on sim's idle list, as any earlier world would.
func allocsOf(tb testing.TB, build func(testing.TB)) (bytes, objects uint64) {
	build(tb)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build(tb)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// A point's world takes its DRAM frames and its per-page table chunks
// (frame, hook and observer tables, page tables, the NICs' incoming page
// tables) from what the last world released at shutdown, so once one point
// has run, the next allocates only its small objects and procs. Without
// the frame recycling a point allocated about 186 KB; without the table
// recycling, 75 KB.
func TestWorldPointReusesFramesAndTables(t *testing.T) {
	const maxBytes, maxObjects = 30 << 10, 440
	bytes, objects := allocsOf(t, worldPoint)
	t.Logf("one point allocated %d KB in %d allocations", bytes>>10, objects)
	if bytes > maxBytes || objects > maxObjects {
		t.Fatalf("one point allocated %d B in %d allocations, want at most %d B and %d", bytes, objects, maxBytes, maxObjects)
	}
}

// A 64-node world rebuilt after another reuses the last one's page tables
// and builds its servers, channels and names without an object each.
// Without that it allocated 497 KB in 5,932 allocations.
func TestMeshWorldRebuildReusesTables(t *testing.T) {
	const maxBytes, maxObjects = 320 << 10, 5000
	bytes, objects := allocsOf(t, meshWorld)
	t.Logf("one 64-node world allocated %d KB in %d allocations", bytes>>10, objects)
	if bytes > maxBytes || objects > maxObjects {
		t.Fatalf("one 64-node world allocated %d B in %d allocations, want at most %d B and %d", bytes, objects, maxBytes, maxObjects)
	}
}
