package nx

import (
	"math"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
)

// runWorld spawns n NX processes on an explicitly-configured cluster and
// runs body on each — the big-geometry companion to runN.
func runWorld(t *testing.T, cfg cluster.Config, n int, nxCfg Config, body func(nx *NX, p *kernel.Process, me int)) {
	t.Helper()
	c := cluster.New(cfg)
	defer c.Shutdown()
	finished := 0
	for i := 0; i < n; i++ {
		i := i
		c.Spawn(i, "app", func(p *kernel.Process) {
			nx := New(c, p, i, n, nxCfg)
			body(nx, p, i)
			nx.Drain()
			finished++
		})
	}
	c.Run()
	if finished != n {
		t.Fatalf("only %d/%d processes finished (deadlock?)", finished, n)
	}
}

// TestCollTypeWindow: the widened collective type field must keep distinct
// (op, seq, round) triples distinct across a window far wider than the
// 64-sequence one that caused aliasing, and stay within int32 range for the
// wire format.
func TestCollTypeWindow(t *testing.T) {
	// The original bug: sequences 64 apart aliased.
	if collType(typGISum, 1, 0) == collType(typGISum, 65, 0) {
		t.Fatal("sequences 64 apart still alias")
	}
	seen := make(map[int][3]int)
	for _, op := range []int{typGSync, typGISum, typGDSum} {
		for _, seq := range []uint32{0, 1, 63, 64, 65, 1000, 100000, 1<<22 - 1} {
			for _, round := range []int{0, 1, 5, 62, 63} {
				v := collType(op, seq, round)
				if v < collBase || v > math.MaxInt32 {
					t.Fatalf("collType(%d,%d,%d) = %#x outside the reserved int32 range", op, seq, round, v)
				}
				if prev, dup := seen[v]; dup {
					t.Fatalf("collType collision: (%d,%d,%d) and %v both map to %#x", op, seq, round, prev, v)
				}
				seen[v] = [3]int{op, int(seq), round}
			}
		}
	}
}

// TestDeepPipelineCollectives runs far more than 64 back-to-back collectives
// — the depth at which the old 6-bit sequence window wrapped — mixing ops so
// any cross-collective aliasing corrupts a visible result.
func TestDeepPipelineCollectives(t *testing.T) {
	const rounds = 150
	runN(t, 4, func(nx *NX, p *kernel.Process, me int) {
		for r := 0; r < rounds; r++ {
			if got, want := nx.Gisum(int64(me+r)), int64(0+1+2+3+4*r); got != want {
				t.Errorf("round %d: gisum = %d, want %d", r, got, want)
			}
			if r%3 == 0 {
				nx.Gsync()
			}
		}
	})
}

// TestNonPowerOfTwoLazyDeterminism: collectives on an 80-node 3-D world
// (non-power-of-two, so the ragged fold runs) with lazy connections, under
// the replay-digest check. This is the geometry class the eager O(N²)
// connection setup made unaffordable.
func TestNonPowerOfTwoLazyDeterminism(t *testing.T) {
	scenario := func() {
		cfg := cluster.Config{MeshDims: []int{4, 4, 5}, MemBytes: 8 << 20}
		runWorld(t, cfg, 80, Config{Lazy: true}, func(nx *NX, p *kernel.Process, me int) {
			if got, want := nx.Gisum(int64(me)), int64(80*79/2); got != want {
				t.Errorf("node %d: gisum = %d, want %d", me, got, want)
			}
			nx.Gdsum(1.0 / float64(me+1))
			nx.Gsync()
		})
	}
	sim.CheckDeterminism(t, scenario)
}

// TestLazyMatchesEagerResults: the lazy connection protocol changes setup
// timing but not semantics — every collective and point-to-point result
// matches the eager world's.
func TestLazyMatchesEagerResults(t *testing.T) {
	one := func(lazy bool) []uint64 {
		got := make([]uint64, 6)
		cfg := cluster.Config{MeshDims: []int{3, 2}}
		runWorld(t, cfg, 6, Config{Lazy: lazy}, func(nx *NX, p *kernel.Process, me int) {
			s := nx.Gdsum(1.0 / float64(me+2))
			nx.Gsync()
			got[me] = math.Float64bits(s)
		})
		return got
	}
	eager, lazy := one(false), one(true)
	for me := range eager {
		if eager[me] != lazy[me] {
			t.Errorf("node %d: eager %x, lazy %x", me, eager[me], lazy[me])
		}
	}
}

// TestCombiningMatchesSoftware: with in-network combining on, Gisum is
// bit-identical to the software path and Gdsum agrees to rounding (the fold
// order differs: tree order vs recursive-doubling order). All nodes must
// agree bitwise among themselves in both modes.
func TestCombiningMatchesSoftware(t *testing.T) {
	type res struct {
		isum int64
		dsum float64
	}
	one := func(combining bool) []res {
		got := make([]res, 16)
		cfg := cluster.Config{MeshDims: []int{4, 2, 2}, Combining: combining}
		runWorld(t, cfg, 16, Config{}, func(nx *NX, p *kernel.Process, me int) {
			nx.Gsync()
			is := nx.Gisum(int64(me + 1))
			ds := nx.Gdsum(1.0 / float64(me+1))
			nx.Gsync()
			got[me] = res{is, ds}
		})
		return got
	}
	sw, comb := one(false), one(true)
	for me := range sw {
		if comb[me].isum != sw[me].isum {
			t.Errorf("node %d: combining gisum %d, software %d", me, comb[me].isum, sw[me].isum)
		}
		if math.Float64bits(comb[me].dsum) != math.Float64bits(comb[0].dsum) {
			t.Errorf("node %d: combining gdsum disagrees with node 0", me)
		}
		if diff := math.Abs(comb[me].dsum - sw[me].dsum); diff > 1e-12 {
			t.Errorf("node %d: combining gdsum %v vs software %v", me, comb[me].dsum, sw[me].dsum)
		}
	}
}

// TestCombiningFasterThanSoftware: the point of in-network combining — a
// barrier + global-sum sequence completes in less virtual time than the
// software recursive-doubling path on the same geometry.
func TestCombiningFasterThanSoftware(t *testing.T) {
	one := func(combining bool) time.Duration {
		var took time.Duration
		cfg := cluster.Config{MeshDims: []int{4, 4}, Combining: combining}
		runWorld(t, cfg, 16, Config{}, func(nx *NX, p *kernel.Process, me int) {
			nx.Gsync() // align everyone past setup
			start := p.P.Now()
			for r := 0; r < 5; r++ {
				nx.Gsync()
				nx.Gdsum(float64(me))
			}
			if me == 0 {
				took = p.P.Now().Sub(start)
			}
		})
		return took
	}
	sw, comb := one(false), one(true)
	if comb >= sw {
		t.Fatalf("combining (%v) not faster than software (%v)", comb, sw)
	}
}

// TestCombiningDeterministicDigest: the combining fast path replays
// bit-for-bit at the full-cluster level.
func TestCombiningDeterministicDigest(t *testing.T) {
	sim.CheckDeterminism(t, func() {
		cfg := cluster.Config{MeshDims: []int{2, 2, 2}, Combining: true}
		c := cluster.New(cfg)
		defer c.Shutdown()
		for i := 0; i < 8; i++ {
			i := i
			c.Spawn(i, "app", func(p *kernel.Process) {
				nx := New(c, p, i, 8, Config{})
				nx.Gdsum(1.0 / float64(i+1))
				nx.Gsync()
				nx.Drain()
			})
		}
		c.Run()
	})
}

// TestCombiningOneWakePerResult: every combining result wakes only the proc
// waiting for it, so a collectives-only world re-parks no proc at the
// instant it woke, and its proc switches per node do not grow with the
// machine. A network-wide wake would make both grow with N.
func TestCombiningOneWakePerResult(t *testing.T) {
	perProc := map[int]int64{}
	for _, dims := range [][]int{{4, 4, 4}, {16, 8, 8}} {
		dt := sim.NewDigestTracer()
		cfg := cluster.Config{MeshDims: dims, Combining: true, Auto: dt}
		c := cluster.New(cfg)
		n := c.Mesh.Nodes()
		for i := 0; i < n; i++ {
			i := i
			c.Spawn(i, "app", func(p *kernel.Process) {
				x := New(c, p, i, n, Config{Lazy: true})
				for k := 0; k < 4; k++ {
					x.Gsync()
					x.Gisum(int64(i))
					x.Gdsum(float64(i))
				}
			})
		}
		c.Run()
		if c.Eng.Rewaits != 0 {
			t.Errorf("%d nodes: Rewaits = %d, want 0", n, c.Eng.Rewaits)
		}
		if dt.Switches%int64(n) != 0 {
			t.Errorf("%d nodes: %d switches is not a whole number per proc", n, dt.Switches)
		}
		perProc[n] = dt.Switches / int64(n)
		c.Shutdown()
	}
	if perProc[64] != perProc[1024] {
		t.Fatalf("switches per proc: %d at 64 nodes, %d at 1024", perProc[64], perProc[1024])
	}
	t.Logf("switches per proc: %d", perProc[64])
}
