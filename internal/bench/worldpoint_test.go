package bench

import (
	"runtime"
	"testing"

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

func BenchmarkWorldPoint(b *testing.B) {
	worldPoint(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worldPoint(b)
	}
}

// A point's world takes its DRAM frames from the frames the last world
// released at shutdown, so once one point has run, the next allocates only
// its tables and procs. Without the recycling each point allocates about
// 186 KB, over 120 KB of it fresh 4 KB frames.
func TestWorldPointReusesFrames(t *testing.T) {
	const maxBytes = 110 << 10
	worldPoint(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	worldPoint(t)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
		t.Fatalf("one point allocated %d KB, want at most %d KB", got>>10, maxBytes>>10)
	} else {
		t.Logf("one point allocated %d KB in %d allocations", got>>10, after.Mallocs-before.Mallocs)
	}
}
