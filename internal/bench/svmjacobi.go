package bench

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/nx"
	"shrimp/internal/svm"
)

// SVM-vs-message-passing: the same 1-D Jacobi stencil as examples/nx-jacobi,
// once over NX halo exchange and once over shared virtual memory, at 2, 4,
// and 8 nodes. Both versions compute bit-identical results (same arithmetic,
// same sweep order); what differs is the communication layer, so the
// per-sweep virtual-time gap is exactly the price of page-granularity
// shared memory versus explicit 8-byte halo messages.

// meshFor picks a mesh geometry for n nodes.
func meshFor(n int) (int, int) {
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

// jacobiCluster builds an n-node system inside r.
func jacobiCluster(r *run, n int) *cluster.Cluster {
	x, y := meshFor(n)
	return r.cluster(cluster.Config{MeshX: x, MeshY: y})
}

// JacobiResult is one run of the stencil under either communication layer.
type JacobiResult struct {
	Nodes, Cells, Sweeps int
	// PerSweepUS is virtual time per sweep, averaged over the whole run
	// (first-touch faults and bindings amortize in, as on real hardware).
	PerSweepUS float64
	// Final is the global interior vector after the last sweep.
	Final []float64
	// Fetches and Faults aggregate the SVM coherence counters across all
	// nodes (zero for the NX run).
	Fetches, Faults int64
}

// JacobiReference computes the same iteration sequentially.
func JacobiReference(cells, sweeps int) []float64 {
	u := make([]float64, cells+2)
	un := make([]float64, cells+2)
	u[0], un[0] = 1.0, 1.0
	for s := 0; s < sweeps; s++ {
		for i := 1; i <= cells; i++ {
			un[i] = 0.5 * (u[i-1] + u[i+1])
		}
		u, un = un, u
		u[0] = 1.0
	}
	return u[1 : cells+1]
}

// NXJacobi runs the stencil over NX halo exchange (csend/crecv ghosts,
// gdsum residual every tenth sweep) — the message-passing baseline.
func NXJacobi(nodes, cells, sweeps int) JacobiResult {
	r := &run{}
	defer r.close()
	if cells%nodes != 0 {
		panic(fmt.Sprintf("bench: %d cells not divisible by %d nodes", cells, nodes))
	}
	local := cells / nodes
	const typLeft, typRight = 100, 101
	c := jacobiCluster(r, nodes)
	strips := make([][]float64, nodes)
	perSweep := make([]float64, nodes)

	for node := 0; node < nodes; node++ {
		node := node
		c.Spawn(node, "jacobi", func(p *kernel.Process) {
			n := nx.New(c, p, node, nodes, nx.Config{})
			u := make([]float64, local+2)
			un := make([]float64, local+2)
			if node == 0 {
				u[0], un[0] = 1.0, 1.0
			}
			buf := p.Alloc(8, 8)
			sendGhost := func(val float64, to, typ int) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(val))
				p.Poke(buf, b[:])
				n.Csend(typ, buf, 8, to, 0)
			}
			recvGhost := func(typ int) float64 {
				n.Crecv(typ, buf, 8)
				return math.Float64frombits(binary.LittleEndian.Uint64(p.Peek(buf, 8)))
			}

			n.Gsync()
			start := p.P.Now()
			var lastResid float64
			for sweep := 0; sweep < sweeps; sweep++ {
				if node > 0 {
					sendGhost(u[1], node-1, typRight)
				}
				if node < nodes-1 {
					sendGhost(u[local], node+1, typLeft)
				}
				if node < nodes-1 {
					u[local+1] = recvGhost(typRight)
				}
				if node > 0 {
					u[0] = recvGhost(typLeft)
				}
				var resid float64
				for i := 1; i <= local; i++ {
					un[i] = 0.5 * (u[i-1] + u[i+1])
					d := un[i] - u[i]
					resid += d * d
				}
				u, un = un, u
				if node == 0 {
					u[0] = 1.0
				}
				if sweep%10 == 0 {
					lastResid = n.Gdsum(resid)
				}
			}
			n.Gsync()
			perSweep[node] = p.P.Now().Sub(start).Seconds() * 1e6 / float64(sweeps)
			_ = lastResid
			strips[node] = append([]float64(nil), u[1:local+1]...)
			n.Drain()
		})
	}
	c.Run()
	res := JacobiResult{Nodes: nodes, Cells: cells, Sweeps: sweeps, PerSweepUS: perSweep[0]}
	for _, s := range strips {
		res.Final = append(res.Final, s...)
	}
	return res
}

// SVMJacobi runs the stencil on a shared region: each node's strips are
// homed at that node (writes are home-local), neighbor ghost reads fault
// and fetch the adjacent strip's edge page each sweep, and a barrier per
// sweep carries the release/acquire coherence. The residual reduction goes
// through a per-node slot page homed at node 0.
func SVMJacobi(nodes, cells, sweeps int) JacobiResult {
	r := &run{}
	defer r.close()
	return svmJacobi(r, nodes, cells, sweeps)
}

// svmJacobi is SVMJacobi inside w (named so the svm region can be r).
func svmJacobi(w *run, nodes, cells, sweeps int) JacobiResult {
	if cells%nodes != 0 {
		panic(fmt.Sprintf("bench: %d cells not divisible by %d nodes", cells, nodes))
	}
	local := cells / nodes
	pps := (local*8 + hw.Page - 1) / hw.Page // pages per strip
	// Layout: u strips, un strips, residual slots — one strip per node,
	// strip i homed at node i; the slot page at node 0.
	pages := 2*nodes*pps + 1
	home := func(g int) int {
		if g < 2*nodes*pps {
			return (g / pps) % nodes
		}
		return 0
	}
	c := jacobiCluster(w, nodes)
	strips := make([][]float64, nodes)
	perSweep := make([]float64, nodes)
	fetches := make([]int64, nodes)
	faults := make([]int64, nodes)

	for node := 0; node < nodes; node++ {
		node := node
		c.Spawn(node, "svm-jacobi", func(p *kernel.Process) {
			r := svm.Join(c, p, node, nodes, "jacobi", pages, svm.Config{Home: home})
			stripVA := func(arr, i int) kernel.VA {
				return r.Base + kernel.VA((arr*nodes+i)*pps*hw.Page)
			}
			slotVA := func(i int) kernel.VA {
				return r.Base + kernel.VA(2*nodes*pps*hw.Page+8*i)
			}
			readF64 := func(va kernel.VA) float64 {
				return math.Float64frombits(binary.LittleEndian.Uint64(p.ReadBytes(va, 8)))
			}
			cur := make([]float64, local+2) // local mirror incl. ghosts
			next := make([]float64, local)
			stripBytes := make([]byte, local*8)

			r.Barrier()
			start := p.P.Now()
			var lastResid float64
			for sweep := 0; sweep < sweeps; sweep++ {
				arr := sweep % 2 // u array this sweep; writes go to 1-arr
				// Ghost cells from the neighbor strips (page fetch on
				// first touch after their last release), physical
				// boundaries as constants.
				if node > 0 {
					cur[0] = readF64(stripVA(arr, node-1) + kernel.VA((local-1)*8))
				} else {
					cur[0] = 1.0
				}
				if node < nodes-1 {
					cur[local+1] = readF64(stripVA(arr, node+1))
				} else {
					cur[local+1] = 0.0
				}
				// Own strip: plain local reads (homed here).
				b := p.ReadBytes(stripVA(arr, node), local*8)
				for i := 0; i < local; i++ {
					cur[i+1] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
				}
				var resid float64
				for i := 1; i <= local; i++ {
					v := 0.5 * (cur[i-1] + cur[i+1])
					next[i-1] = v
					d := v - cur[i]
					resid += d * d
				}
				for i, v := range next {
					binary.LittleEndian.PutUint64(stripBytes[8*i:], math.Float64bits(v))
				}
				// One store burst into the new strip (write fault per
				// page on the first sweep that touches it).
				p.WriteBytes(stripVA(1-arr, node), stripBytes)
				if sweep%10 == 0 {
					var rb [8]byte
					binary.LittleEndian.PutUint64(rb[:], math.Float64bits(resid))
					p.WriteBytes(slotVA(node), rb[:])
				}
				r.Barrier()
				if sweep%10 == 0 {
					// Deterministic slot order: every node computes the
					// same sum from the merged home copy.
					var sum float64
					for i := 0; i < nodes; i++ {
						sum += readF64(slotVA(i))
					}
					lastResid = sum
				}
			}
			perSweep[node] = p.P.Now().Sub(start).Seconds() * 1e6 / float64(sweeps)
			_ = lastResid
			// Results: the last-written array is 1-arr of the final
			// sweep, i.e. index sweeps%2... read via Peek (bookkeeping,
			// not protocol) from the locally-homed strip.
			fin := p.Peek(stripVA(sweeps%2, node), local*8)
			out := make([]float64, local)
			for i := range out {
				out[i] = math.Float64frombits(binary.LittleEndian.Uint64(fin[8*i:]))
			}
			strips[node] = out
			fetches[node] = r.Stats.Fetches
			faults[node] = r.Stats.ReadFaults + r.Stats.WriteFaults
			r.Barrier()
		})
	}
	c.Run()
	res := JacobiResult{Nodes: nodes, Cells: cells, Sweeps: sweeps, PerSweepUS: perSweep[0]}
	for _, s := range strips {
		res.Final = append(res.Final, s...)
	}
	for i := range fetches {
		res.Fetches += fetches[i]
		res.Faults += faults[i]
	}
	return res
}

// JacobiCompareRow is one node-count row of the comparison table.
type JacobiCompareRow struct {
	Nodes         int
	NXPerSweepUS  float64
	SVMPerSweepUS float64
	Ratio         float64
	SVMFetches    int64
	Match         bool // both layers produced bit-identical vectors
}

// JacobiCompare runs both versions at each node count.
func JacobiCompare(cells, sweeps int, nodeCounts []int) []JacobiCompareRow {
	var rows []JacobiCompareRow
	for _, n := range nodeCounts {
		nxr := NXJacobi(n, cells, sweeps)
		svr := SVMJacobi(n, cells, sweeps)
		rows = append(rows, JacobiCompareRow{
			Nodes:         n,
			NXPerSweepUS:  nxr.PerSweepUS,
			SVMPerSweepUS: svr.PerSweepUS,
			Ratio:         svr.PerSweepUS / nxr.PerSweepUS,
			SVMFetches:    svr.Fetches,
			Match:         vectorsEqual(nxr.Final, svr.Final),
		})
	}
	return rows
}

func vectorsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// JacobiTable renders the SVM-vs-NX comparison.
func JacobiTable(rows []JacobiCompareRow, cells, sweeps int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SVM-JACOBI — %d-cell 1-D Jacobi, %d sweeps: shared virtual memory vs NX message passing\n", cells, sweeps)
	fmt.Fprintf(&b, "%6s %16s %16s %8s %12s %8s\n",
		"nodes", "NX us/sweep", "SVM us/sweep", "ratio", "SVM fetches", "match")
	for _, r := range rows {
		match := "yes"
		if !r.Match {
			match = "NO"
		}
		fmt.Fprintf(&b, "%6d %16.2f %16.2f %7.1fx %12d %8s\n",
			r.Nodes, r.NXPerSweepUS, r.SVMPerSweepUS, r.Ratio, r.SVMFetches, match)
	}
	return b.String()
}

// svmJacobiVerified is the representative SVM scenario for tracing and the
// chaos soak: a short stencil run plus a lock-protected shared counter,
// with both results verified — under a fault plan, termination alone is
// not enough, the answers must still be right.
func svmJacobiVerified(w *run) (JacobiResult, error) {
	const nodes, cells, sweeps, lockRounds = 4, 64, 12, 3
	res := svmJacobi(w, nodes, cells, sweeps)
	if ref := JacobiReference(cells, sweeps); !vectorsEqual(res.Final, ref) {
		return res, fmt.Errorf("svm-jacobi diverged from the sequential reference")
	}

	// Lock phase: concurrent read-modify-write under svm.Lock.
	c := jacobiCluster(w, nodes)
	counters := make([]uint32, nodes)
	for node := 0; node < nodes; node++ {
		node := node
		c.Spawn(node, "svm-lock", func(p *kernel.Process) {
			r := svm.Join(c, p, node, nodes, "chaoslock", 1, svm.Config{})
			l := r.Lock(1)
			for k := 0; k < lockRounds; k++ {
				l.Acquire()
				p.WriteWord(r.Base, p.ReadWord(r.Base)+1)
				l.Release()
			}
			r.Barrier()
			counters[node] = p.ReadWord(r.Base)
			r.Barrier()
		})
	}
	c.Run()
	for node, v := range counters {
		if v != nodes*lockRounds {
			return res, fmt.Errorf("svm lock counter on node %d: got %d, want %d", node, v, nodes*lockRounds)
		}
	}
	return res, nil
}
