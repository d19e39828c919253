package nx

import (
	"fmt"
	"runtime"
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
)

// allocRuns is how many measured rounds testing.AllocsPerRun makes; it
// calls the round once more to warm up.
const allocRuns = 20

// pingPong runs NX Csend/Crecv round trips of size bytes between the two
// nodes of a 2-node cluster. Node 0 warms up, then hands its round to
// measure, which must run it exactly rounds times; node 1 echoes. The
// warm-up cycles through every packet buffer twice, so each page of the
// connection regions is materialized and every pool is full.
func pingPong(t testing.TB, size, rounds int, measure func(round func())) {
	t.Helper()
	const warm = 2 * NumPkt
	c := cluster.New(cluster.Config{MeshX: 2, MeshY: 1})
	defer c.Shutdown()
	finished := 0
	c.Spawn(0, "ping", func(p *kernel.Process) {
		nx := New(c, p, 0, 2, Config{})
		buf := fill(p, size, 1)
		round := func() {
			nx.Csend(1, buf, size, 1, 0)
			nx.Crecv(2, buf, size)
		}
		for i := 0; i < warm; i++ {
			round()
		}
		measure(round)
		nx.Drain()
		finished++
	})
	c.Spawn(1, "pong", func(p *kernel.Process) {
		nx := New(c, p, 1, 2, Config{})
		buf := p.Alloc(size+8, hw.WordSize)
		for i := 0; i < warm+rounds; i++ {
			nx.Crecv(1, buf, size)
			nx.Csend(2, buf, size, 0, 0)
		}
		nx.Drain()
		finished++
	})
	c.Run()
	if finished != 2 {
		t.Fatalf("only %d/2 processes finished", finished)
	}
}

// pingPongAllocs measures the steady-state allocations of one round trip.
// Both sides' allocations land in the measurement, as do the NIC's and
// the mesh's.
func pingPongAllocs(t *testing.T, size int) float64 {
	var allocs float64
	pingPong(t, size, allocRuns+1, func(round func()) {
		allocs = testing.AllocsPerRun(allocRuns, round)
	})
	return allocs
}

func benchPingPong(b *testing.B, size int) {
	pingPong(b, size, b.N, func(round func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
}

// BenchmarkPingPongAU2 times one small-message round trip.
func BenchmarkPingPongAU2(b *testing.B) { benchPingPong(b, 256) }

// BenchmarkPingPongDU0 times one large-message zero-copy round trip.
func BenchmarkPingPongDU0(b *testing.B) { benchPingPong(b, 3*PayloadMax) }

// A warm small-message round trip (the AU one-copy path through packet
// buffers, credits and the combining snoop) allocates nothing.
func TestCsendCrecvAU2AllocFree(t *testing.T) {
	if a := pingPongAllocs(t, 256); a != 0 {
		t.Fatalf("%v allocs per AU2 round trip, want 0", a)
	}
}

// A warm large-message round trip (the DU zero-copy path: scout, backup
// copy, reply, deliberate update from user memory, done flag) allocates
// nothing either.
func TestCsendCrecvDU0AllocFree(t *testing.T) {
	if a := pingPongAllocs(t, 3*PayloadMax); a != 0 {
		t.Fatalf("%v allocs per DU0 round trip, want 0", a)
	}
}

// A warm combining Gdsum plus Gsync on an 8-node mesh allocates nothing:
// the collective state, every combine packet in flight and the result
// records are pooled.
func TestCombiningCollectivesAllocFree(t *testing.T) {
	const nodes, warm = 8, 4
	c := cluster.New(cluster.Config{MeshDims: []int{2, 2, 2}, Combining: true})
	defer c.Shutdown()
	var allocs float64
	finished := 0
	for i := 0; i < nodes; i++ {
		i := i
		c.Spawn(i, "coll", func(p *kernel.Process) {
			nx := New(c, p, i, nodes, Config{})
			sum := 0.0
			round := func() {
				sum += nx.Gdsum(float64(i))
				nx.Gsync()
			}
			for r := 0; r < warm; r++ {
				round()
			}
			if i == 0 {
				allocs = testing.AllocsPerRun(allocRuns, round)
			} else {
				for r := 0; r < allocRuns+1; r++ {
					round()
				}
			}
			if want := float64(nodes*(nodes-1)/2) * (warm + allocRuns + 1); sum != want {
				t.Errorf("node %d: summed %v, want %v", i, sum, want)
			}
			finished++
		})
	}
	c.Run()
	if finished != nodes {
		t.Fatalf("only %d/%d processes finished", finished, nodes)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per Gdsum+Gsync, want 0", allocs)
	}
}

// BenchmarkCrecvFanIn times one small-message Crecv(TypeAny) at a receiver
// that 1, 4 or 16 senders stream to: each receive's scans visit only the
// packet buffers that have landed, so its cost should barely grow with the
// number of connections.
func BenchmarkCrecvFanIn(b *testing.B) {
	for _, senders := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) { benchFanIn(b, senders) })
	}
}

// fanIn streams 64 B messages from senders nodes to a receiver on node 0.
// The receiver warms up with two rounds of every sender's packet buffers,
// then hands its Crecv(TypeAny) to measure, which must call it exactly
// rounds times.
func fanIn(t testing.TB, senders, rounds int, measure func(p *kernel.Process, recv func())) {
	t.Helper()
	const size, warm = 64, 2 * NumPkt // warm: messages per sender
	nodes := senders + 1
	c := cluster.New(cluster.Config{MeshDims: []int{nodes}})
	defer c.Shutdown()
	finished := 0
	c.Spawn(0, "recv", func(p *kernel.Process) {
		nx := New(c, p, 0, nodes, Config{Lazy: true})
		for s := 1; s <= senders; s++ {
			nx.Connect(s)
		}
		buf := p.Alloc(size, hw.WordSize)
		recv := func() { nx.Crecv(TypeAny, buf, size) }
		for i := 0; i < warm*senders; i++ {
			recv()
		}
		measure(p, recv)
		nx.Drain()
		finished++
	})
	for s := 1; s <= senders; s++ {
		s := s
		c.Spawn(s, "send", func(p *kernel.Process) {
			nx := New(c, p, s, nodes, Config{Lazy: true})
			buf := fill(p, size, int64(s))
			count := warm + rounds/senders
			if s <= rounds%senders {
				count++
			}
			for i := 0; i < count; i++ {
				nx.Csend(1, buf, size, 0, 0)
			}
			nx.Drain()
			finished++
		})
	}
	c.Run()
	if finished != nodes {
		t.Fatalf("only %d/%d processes finished", finished, nodes)
	}
}

func benchFanIn(b *testing.B, senders int) {
	fanIn(b, senders, b.N, func(_ *kernel.Process, recv func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recv()
		}
		b.StopTimer()
	})
}

// A lone sender outruns the receiver, runs out of credits and rings the
// receiver's doorbell: a notifying transfer, an interrupt, a signal and
// the notification handler. That path allocates nothing. The count is per
// doorbell rather than per receive, so one allocation per doorbell cannot
// round away; the few allocations left in the window are pools and queues
// still growing by doubling, far fewer than the doorbells.
func TestDoorbellAllocFree(t *testing.T) {
	const rounds = 400
	var mallocs uint64
	var irqs int64
	fanIn(t, 1, rounds, func(p *kernel.Process, recv func()) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		irq := p.M.IRQRaised
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			recv()
		}
		runtime.ReadMemStats(&after)
		mallocs, irqs = after.Mallocs-before.Mallocs, p.M.IRQRaised-irq
	})
	t.Logf("%d allocations, %d doorbells in %d receives", mallocs, irqs, rounds)
	if irqs < rounds/8 {
		t.Fatalf("only %d doorbells in %d receives", irqs, rounds)
	}
	if mallocs >= uint64(irqs)/8 {
		t.Fatalf("%d allocations for %d doorbells, want fewer than one per 8", mallocs, irqs)
	}
}
