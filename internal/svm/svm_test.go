package svm

import (
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/fault"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
)

// geometry picks a mesh for n nodes.
func geometry(n int) (int, int) {
	switch n {
	case 1:
		return 1, 1
	case 2:
		return 2, 1
	case 8:
		return 4, 2
	default:
		return 2, 2
	}
}

// runRegion spawns n processes, joins them to one region, and runs each
// body to completion. The bodies are responsible for ending with a Barrier
// (the package's lifetime rule).
func runRegion(t *testing.T, cfg cluster.Config, n, pages int, rcfg Config, body func(r *Region, p *kernel.Process, me int)) {
	t.Helper()
	cfg.MeshX, cfg.MeshY = geometry(n)
	c := cluster.New(cfg)
	defer c.Shutdown()
	finished := 0
	for i := 0; i < n; i++ {
		i := i
		c.Spawn(i, "app", func(p *kernel.Process) {
			r := Join(c, p, i, n, "t", pages, rcfg)
			body(r, p, i)
			finished++
		})
	}
	c.Run()
	if finished != n {
		t.Fatalf("only %d/%d processes finished (deadlock?)", finished, n)
	}
}

// TestFetchOnReadFault: the home writes a page; after a barrier, a reader
// faults, pulls the page, and sees the data.
func TestFetchOnReadFault(t *testing.T) {
	got := make([]uint32, 4)
	var readerStats Stats
	runRegion(t, cluster.Config{}, 4, 2, Config{}, func(r *Region, p *kernel.Process, me int) {
		if me == 0 { // home of page 0 under round-robin
			p.WriteWord(r.Base, 0xfeedface)
			p.WriteWord(r.Base+hw.Page-4, 0xcafe0000)
		}
		r.Barrier()
		got[me] = p.ReadWord(r.Base)
		if tail := p.ReadWord(r.Base + hw.Page - 4); tail != 0xcafe0000 {
			t.Errorf("node %d: tail word %#x", me, tail)
		}
		r.Barrier()
		if me == 1 {
			readerStats = r.Stats
		}
	})
	for me, v := range got {
		if v != 0xfeedface {
			t.Errorf("node %d read %#x", me, v)
		}
	}
	if readerStats.ReadFaults == 0 || readerStats.Fetches == 0 {
		t.Errorf("reader took no faults/fetches: %+v", readerStats)
	}
}

// TestAUWritesReachHome: a non-home writer's stores stream to the home copy
// via automatic update; after the writer's release the home reads them from
// plain local memory, with no fetch and no page shipped by the protocol.
func TestAUWritesReachHome(t *testing.T) {
	var homeStats Stats
	runRegion(t, cluster.Config{}, 2, 1, Config{}, func(r *Region, p *kernel.Process, me int) {
		if me == 1 {
			for w := 0; w < 8; w++ {
				p.WriteWord(r.Base+kernel.VA(4*w), uint32(0x1000+w))
			}
		}
		r.Barrier()
		if me == 0 {
			for w := 0; w < 8; w++ {
				if v := p.ReadWord(r.Base + kernel.VA(4*w)); v != uint32(0x1000+w) {
					t.Errorf("home word %d = %#x", w, v)
				}
			}
			homeStats = r.Stats
		}
		r.Barrier()
	})
	if homeStats.Fetches != 0 || homeStats.ReadFaults != 0 {
		t.Errorf("home fetched its own pages: %+v", homeStats)
	}
}

// TestLockMutualExclusion: concurrent read-modify-write of one shared
// counter under a lock. Any lost update means the critical sections
// overlapped or coherence failed.
func TestLockMutualExclusion(t *testing.T) {
	const rounds = 5
	final := make([]uint32, 4)
	runRegion(t, cluster.Config{}, 4, 1, Config{}, func(r *Region, p *kernel.Process, me int) {
		l := r.Lock(7)
		for k := 0; k < rounds; k++ {
			l.Acquire()
			p.WriteWord(r.Base, p.ReadWord(r.Base)+1)
			l.Release()
		}
		r.Barrier()
		final[me] = p.ReadWord(r.Base)
		r.Barrier()
	})
	for me, v := range final {
		if v != 4*rounds {
			t.Errorf("node %d: counter = %d, want %d", me, v, 4*rounds)
		}
	}
}

// TestNoticesInvalidate: a cached reader is invalidated by a writer's
// release notices and refetches current data at its next access.
func TestNoticesInvalidate(t *testing.T) {
	runRegion(t, cluster.Config{}, 2, 1, Config{}, func(r *Region, p *kernel.Process, me int) {
		if me == 0 {
			p.WriteWord(r.Base, 1)
		}
		r.Barrier()
		// Node 1 caches the page.
		if me == 1 {
			if v := p.ReadWord(r.Base); v != 1 {
				t.Errorf("first read = %d", v)
			}
		}
		r.Barrier()
		if me == 0 {
			p.WriteWord(r.Base, 2)
		}
		r.Barrier()
		if me == 1 {
			before := r.Stats.Fetches
			if v := p.ReadWord(r.Base); v != 2 {
				t.Errorf("read after invalidation = %d", v)
			}
			if r.Stats.Fetches != before+1 {
				t.Errorf("expected a refetch: %d -> %d", before, r.Stats.Fetches)
			}
			if r.Stats.Invalidations == 0 {
				t.Error("no invalidations recorded")
			}
		}
		r.Barrier()
	})
}

// TestDeterminism: the digest of a lock+barrier workload is replay-stable.
func TestDeterminism(t *testing.T) {
	sim.CheckDeterminism(t, func() {
		c := cluster.New(cluster.Config{MeshX: 2, MeshY: 2})
		defer c.Shutdown()
		for i := 0; i < 4; i++ {
			i := i
			c.Spawn(i, "app", func(p *kernel.Process) {
				r := Join(c, p, i, 4, "d", 2, Config{})
				l := r.Lock(3)
				for k := 0; k < 3; k++ {
					l.Acquire()
					p.WriteWord(r.Base+4, p.ReadWord(r.Base+4)+1)
					l.Release()
					r.Barrier()
				}
				r.Barrier()
			})
		}
		c.Run()
	})
}

// TestSurvivesLossyLinks: the full coherence protocol (fetches, AU flushes,
// flush markers, lock and barrier traffic) terminates with correct results
// on a 0.1%-drop fabric with the retransmission sublayer on.
func TestSurvivesLossyLinks(t *testing.T) {
	plan := &fault.Plan{Name: "drop-0.1%", Link: fault.LinkFaults{DropProb: 0.001}}
	cfg := cluster.Config{FaultPlan: plan, FaultSeed: 7, Reliable: true}
	const rounds = 4
	final := make([]uint32, 4)
	runRegion(t, cfg, 4, 2, Config{}, func(r *Region, p *kernel.Process, me int) {
		l := r.Lock(9)
		for k := 0; k < rounds; k++ {
			l.Acquire()
			p.WriteWord(r.Base, p.ReadWord(r.Base)+1)
			l.Release()
			p.WriteWord(r.Base+hw.Page+kernel.VA(4*me), uint32(me*100+k))
			r.Barrier()
		}
		final[me] = p.ReadWord(r.Base)
		r.Barrier()
	})
	for me, v := range final {
		if v != 4*rounds {
			t.Errorf("node %d: counter = %d, want %d", me, v, 4*rounds)
		}
	}
}

// TestEightNodes exercises the wider geometry the benchmark comparison
// uses.
func TestEightNodes(t *testing.T) {
	runRegion(t, cluster.Config{}, 8, 8, Config{}, func(r *Region, p *kernel.Process, me int) {
		// Everyone writes its own home page; everyone reads a neighbor's.
		p.WriteWord(r.Base+kernel.VA(me*hw.Page), uint32(me+1))
		r.Barrier()
		next := (me + 1) % 8
		if v := p.ReadWord(r.Base + kernel.VA(next*hw.Page)); v != uint32(next+1) {
			t.Errorf("node %d: neighbor %d page = %d", me, next, v)
		}
		r.Barrier()
	})
}

// TestSingleNodeRegion: the degenerate n=1 region works (no peers, no
// traffic), so code can be written node-count generic.
func TestSingleNodeRegion(t *testing.T) {
	runRegion(t, cluster.Config{MeshX: 1, MeshY: 1}, 1, 2, Config{}, func(r *Region, p *kernel.Process, me int) {
		l := r.Lock(0)
		l.Acquire()
		p.WriteWord(r.Base, 42)
		l.Release()
		r.Barrier()
		if v := p.ReadWord(r.Base); v != 42 {
			t.Errorf("v = %d", v)
		}
	})
}

// TestFetchLatencyIsCharged: a remote read costs real virtual time (fault
// upcall + control round trip + page transfer), so SVM results in the
// benchmarks reflect the protocol's actual price.
func TestFetchLatencyIsCharged(t *testing.T) {
	var faultTime time.Duration
	runRegion(t, cluster.Config{}, 2, 1, Config{}, func(r *Region, p *kernel.Process, me int) {
		if me == 0 {
			p.WriteWord(r.Base, 1)
		}
		r.Barrier()
		if me == 1 {
			start := p.P.Now()
			p.ReadWord(r.Base)
			faultTime = p.P.Now().Sub(start)
		}
		r.Barrier()
	})
	// A 4KB page at ~26.5 MB/s is ~150us of DMA alone; anything under the
	// upcall cost means the fault path was never charged.
	if faultTime < hw.PageFaultUpcall {
		t.Errorf("remote read cost only %v", faultTime)
	}
	if faultTime > 2*time.Millisecond {
		t.Errorf("remote read implausibly slow: %v", faultTime)
	}
}
