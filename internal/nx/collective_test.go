package nx

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
)

// runN is the variable-node-count harness for collective tests (the shared
// run() helper is pinned to the default 4-node prototype).
func runN(t *testing.T, n int, body func(nx *NX, p *kernel.Process, me int)) {
	t.Helper()
	var x, y int
	switch n {
	case 2:
		x, y = 2, 1
	case 8:
		x, y = 4, 2
	default:
		x, y = 2, 2
	}
	c := cluster.New(cluster.Config{MeshX: x, MeshY: y})
	defer c.Shutdown()
	finished := 0
	for i := 0; i < n; i++ {
		i := i
		c.Spawn(i, "app", func(p *kernel.Process) {
			nx := New(c, p, i, n, Config{})
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

// TestGatherNonZeroRoot: Gather's documented destination layout — the
// root's own contribution first, then the other nodes in increasing order —
// exercised with the root in the middle of the node range (TestGather only
// covers root 0, where "root first" and "ascending" coincide).
func TestGatherNonZeroRoot(t *testing.T) {
	const per, root = 48, 2
	// The root's gathered bytes, copied out before runN shuts the world
	// (and its memory) down.
	var gathered []byte
	runN(t, 4, func(nx *NX, p *kernel.Process, me int) {
		src := fill(p, per, int64(700+me))
		dst := p.Alloc(4*per, 4)
		nx.Gather(root, src, per, dst)
		nx.Gsync()
		if me == root {
			gathered = p.Peek(dst, 4*per)
		}
	})
	wantOrder := []int{root, 0, 1, 3}
	for slot, node := range wantOrder {
		want := make([]byte, per)
		rand.New(rand.NewSource(int64(700 + node))).Read(want)
		got := gathered[slot*per : (slot+1)*per]
		if !bytes.Equal(got, want) {
			t.Errorf("slot %d: want node %d's data, got something else", slot, node)
		}
	}
}

// TestGdsumOrderDeterminism: floating-point addition is not associative, so
// a reduction is only reproducible if every run combines contributions in
// the same order. At each node count, all nodes must agree bitwise, and
// repeated runs must produce the same bits — the summation order is part of
// the collective's contract, not an accident of message arrival.
func TestGdsumOrderDeterminism(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		one := func() []uint64 {
			got := make([]uint64, n)
			runN(t, n, func(nx *NX, p *kernel.Process, me int) {
				// 1/(me+1): sums that expose any reassociation.
				got[me] = math.Float64bits(nx.Gdsum(1.0 / float64(me+1)))
			})
			return got
		}
		first := one()
		for me := 1; me < n; me++ {
			if first[me] != first[0] {
				t.Errorf("n=%d: node %d got %x, node 0 got %x", n, me, first[me], first[0])
			}
		}
		second := one()
		for me := 0; me < n; me++ {
			if second[me] != first[me] {
				t.Errorf("n=%d: run 2 node %d got %x, run 1 got %x", n, me, second[me], first[me])
			}
		}
	}
}

// TestGdsumDeterministicDigest: the reduction's full event stream is
// replay-stable, not just its numeric result.
func TestGdsumDeterministicDigest(t *testing.T) {
	sim.CheckDeterminism(t, func() {
		c := cluster.New(cluster.Config{MeshX: 2, MeshY: 2})
		defer c.Shutdown()
		for i := 0; i < 4; i++ {
			i := i
			c.Spawn(i, "app", func(p *kernel.Process) {
				nx := New(c, p, i, 4, Config{})
				nx.Gdsum(1.0 / float64(i+1))
				nx.Gsync()
				nx.Drain()
			})
		}
		c.Run()
	})
}
