package cluster

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

func TestDefaultGeometry(t *testing.T) {
	c := Default()
	if len(c.Nodes) != 4 {
		t.Fatalf("prototype is 4 nodes, got %d", len(c.Nodes))
	}
	if c.Mesh.Nodes() != 4 {
		t.Fatalf("mesh size %d", c.Mesh.Nodes())
	}
	for i, n := range c.Nodes {
		if n.ID != i || n.M == nil || n.NIC == nil || n.Daemon == nil {
			t.Fatalf("node %d incomplete: %+v", i, n)
		}
		// 40 MB per node, as on the DEC 560ST.
		if got := n.M.Mem.Pages() * hw.Page; got != 40<<20 {
			t.Fatalf("node %d memory %d", i, got)
		}
	}
}

func TestNodeBoundsPanic(t *testing.T) {
	c := Default()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Node(4)
}

// TestSixteenNodes boots the expansion the paper planned ("we also plan to
// expand the system to 16 nodes") and runs an all-pairs VMMC exchange.
func TestSixteenNodes(t *testing.T) {
	c := New(Config{MeshX: 4, MeshY: 4, MemBytes: 8 << 20})
	if len(c.Nodes) != 16 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	const peers = 16
	finished := 0
	for node := 0; node < peers; node++ {
		node := node
		c.Spawn(node, "all2all", func(p *kernel.Process) {
			ep := vmmc.Attach(p, c.Node(node).Daemon)
			// Export one page per peer (they write their node id + a
			// flag into their slot).
			recv := p.MapPages(1, 0)
			if _, err := ep.Export(recv, 1, vmmc.ExportOpts{Name: fmt.Sprintf("slot%d", node)}); err != nil {
				t.Error(err)
				return
			}
			// Import every peer's slot, retrying until exported.
			imps := make([]*vmmc.Import, peers)
			for peer := 0; peer < peers; peer++ {
				if peer == node {
					continue
				}
				for {
					imp, err := ep.Import(peer, fmt.Sprintf("slot%d", peer))
					if err == nil {
						imps[peer] = imp
						break
					}
					p.P.Sleep(300 * time.Microsecond)
				}
			}
			// Write our id into offset node*8 of every peer's page.
			src := p.Alloc(8, hw.WordSize)
			p.WriteWord(src, uint32(node+1))
			p.WriteWord(src+4, 0xbeef)
			for peer := 0; peer < peers; peer++ {
				if peer == node {
					continue
				}
				if err := ep.Send(imps[peer], node*8, src, 8); err != nil {
					t.Error(err)
					return
				}
			}
			// Wait for all 15 peers' stamps.
			for peer := 0; peer < peers; peer++ {
				if peer == node {
					continue
				}
				p.WaitWord(recv+kernel.VA(peer*8), func(v uint32) bool { return v == uint32(peer+1) })
			}
			finished++
		})
	}
	c.Run()
	if finished != peers {
		t.Fatalf("only %d/%d nodes completed the all-to-all", finished, peers)
	}
	// Dimension-order routes on a 4x4 mesh run up to 6 hops; traffic must
	// actually have crossed the mesh.
	if c.Mesh.PacketsDelivered < int64(peers*(peers-1)) {
		t.Fatalf("suspiciously few packets: %d", c.Mesh.PacketsDelivered)
	}
}

func TestDeterministicRuns(t *testing.T) {
	// Two identical cluster workloads must end at the identical virtual
	// time — the engine is a pure function of its inputs.
	run := func() int64 {
		c := Default()
		for node := 0; node < 4; node++ {
			node := node
			c.Spawn(node, "w", func(p *kernel.Process) {
				ep := vmmc.Attach(p, c.Node(node).Daemon)
				buf := p.MapPages(1, 0)
				if _, err := ep.Export(buf, 1, vmmc.ExportOpts{Name: "b"}); err != nil {
					t.Error(err)
				}
				peer := (node + 1) % 4
				var imp *vmmc.Import
				for {
					var err error
					imp, err = ep.Import(peer, "b")
					if err == nil {
						break
					}
					p.P.Sleep(100 * time.Microsecond)
				}
				src := p.Alloc(128, 4)
				for i := 0; i < 10; i++ {
					if err := ep.Send(imp, 0, src, 128); err != nil {
						t.Error(err)
					}
				}
			})
		}
		return int64(c.Run())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

// Shutdown hands a world's DRAM frames to the next world, which must see
// none of the old bytes: world A fills more pages than the free list holds
// with a pattern, so the list is all pattern frames after its shutdown, and
// world B's never-written pages, each stamped with one word, read as zeros
// everywhere else.
func TestShutdownRecyclesClearedFrames(t *testing.T) {
	const pages = 1100
	a := Default()
	a.Spawn(0, "fill", func(p *kernel.Process) {
		buf := p.Alloc(pages*hw.Page, hw.Page)
		p.Poke(buf, bytes.Repeat([]byte{0xa5}, pages*hw.Page))
	})
	a.Run()
	a.Shutdown()

	b := Default()
	defer b.Shutdown()
	stale := 0
	b.Spawn(0, "stamp", func(p *kernel.Process) {
		const n = 256
		buf := p.Alloc(n*hw.Page, hw.Page)
		want := make([]byte, hw.Page)
		want[0] = 7
		for pg := 0; pg < n; pg++ {
			va := buf + kernel.VA(pg*hw.Page)
			p.Poke(va, []byte{7})
			if !bytes.Equal(p.Peek(va, hw.Page), want) {
				stale++
			}
		}
	})
	b.Run()
	if stale != 0 {
		t.Fatalf("%d of world B's fresh pages carry world A's bytes", stale)
	}
}

// After Shutdown a world's memory is gone: Peek and Poke panic rather than
// read or write a frame another world may now own. A second Shutdown is a
// no-op.
func TestPeekPokeAfterShutdownPanics(t *testing.T) {
	c := Default()
	var proc *kernel.Process
	var buf kernel.VA
	c.Spawn(0, "app", func(p *kernel.Process) {
		proc, buf = p, p.Alloc(64, hw.WordSize)
		p.Poke(buf, []byte{1, 2, 3, 4})
	})
	c.Run()
	if got := proc.Peek(buf, 4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("before Shutdown: Peek = %v", got)
	}
	c.Shutdown()
	c.Shutdown()
	for name, access := range map[string]func(){
		"Peek": func() { proc.Peek(buf, 4) },
		"Poke": func() { proc.Poke(buf, []byte{5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Shutdown did not panic", name)
				}
			}()
			access()
		}()
	}
}

// Shutdown pools a world's table chunks once: a second Shutdown pushes
// nothing, so no chunk can reach two later tables.
func TestSecondShutdownPoolsNothing(t *testing.T) {
	world := func() *Cluster {
		c := Default()
		for node := 0; node < 2; node++ {
			c.Spawn(node, "w", func(p *kernel.Process) {
				ep := vmmc.Attach(p, c.Node(node).Daemon)
				buf := p.MapPages(2, 0)
				if _, err := ep.Export(buf, 2, vmmc.ExportOpts{Name: "b", Handler: func(vmmc.Notification) {}}); err != nil {
					t.Error(err)
				}
				p.WriteWord(buf, 1)
			})
		}
		c.Run()
		return c
	}
	world().Shutdown()
	c := world()
	before := mem.PooledChunkBytes()
	c.Shutdown()
	pooled := mem.PooledChunkBytes()
	if pooled <= before {
		t.Fatalf("Shutdown pooled no table chunk (%d B before, %d after)", before, pooled)
	}
	c.Shutdown()
	if got := mem.PooledChunkBytes(); got != pooled {
		t.Fatalf("a second Shutdown pooled %d more bytes", got-pooled)
	}
}

// engineMark is a tracer that holds nothing: attached to an engine for the
// engine's lifetime, it becomes unreachable exactly when the engine does.
// (A finalizer on the engine itself never runs: the engine sits in
// reference cycles through its procs, and Go does not finalize cycles.)
type engineMark struct{ _ int }

func (*engineMark) Event(sim.Time, uint64)         {}
func (*engineMark) ProcSwitch(sim.Time, *sim.Proc) {}

// A shut-down world is garbage: nothing the process-level free lists keep
// (frames, table chunks, idle coroutines, names) points back into it. The
// world parks a proc on a page's watcher and installs a write observer, so
// a hook or observer chunk pooled without its clear would keep it alive.
func TestShutdownWorldIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		mark := new(engineMark)
		runtime.SetFinalizer(mark, func(*engineMark) { close(collected) })
		c := New(Config{Auto: mark})
		c.Spawn(0, "waiter", func(p *kernel.Process) {
			va := p.MapPages(1, 0)
			p.ObserveWrites(va, func(int, int) {})
			pte, _ := p.PTEOf(va)
			c.Eng.Post(time.Microsecond, func() { p.M.Mem.Write(pte.Frame.Base(), []byte{1, 0, 0, 0}) })
			p.WaitWord(va, func(v uint32) bool { return v == 1 })
		})
		c.Run()
		c.Shutdown()
	}()
	// The finalizer runs on the runtime's finalizer goroutine once a
	// collection finds the tracer unreachable.
	for i := 0; i < 100; i++ {
		runtime.GC()
		runtime.Gosched()
		select {
		case <-collected:
			return
		default:
		}
	}
	t.Fatal("a shut-down world's engine is still reachable")
}
