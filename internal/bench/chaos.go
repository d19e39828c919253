// Chaos soak harness: every scenario-table row run under a matrix of seeded
// fault plans, asserting that the run terminates (no parked procs left
// behind), that acknowledged data arrived byte-intact, and that the
// determinism digest is stable per (seed, plan) — fault injection must not
// break replay. Surfaced via `shrimpbench -fig faults`, a golden row.
package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/fault"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/socket"
	"shrimp/internal/sunrpc"
	"shrimp/internal/vmmc"
)

// StandardChaosPlans is the soak matrix: three lossy-link plans (which the
// reliability sublayer must absorb) and one NIC-fault plan (freeze storm +
// outgoing stall, exercised on the raw in-order backplane).
func StandardChaosPlans() []fault.Plan {
	return []fault.Plan{
		{Name: "drop-0.1%", Link: fault.LinkFaults{DropProb: 0.001}},
		{Name: "drop-1%", Link: fault.LinkFaults{DropProb: 0.01}},
		{Name: "lossy-link", Link: fault.LinkFaults{
			DropProb: 0.002, CorruptProb: 0.002, DelayProb: 0.005, ReorderProb: 0.002}},
		{Name: "nic-storm", NIC: []fault.NICFault{
			{Node: 1, Kind: fault.FreezeStorm, At: 200 * time.Microsecond, Count: 4, Gap: 10 * time.Microsecond},
			{Node: 0, Kind: fault.OutStall, At: 400 * time.Microsecond, Dur: 50 * time.Microsecond},
		}},
	}
}

// ChaosResult is one (scenario, plan) cell of the soak matrix.
type ChaosResult struct {
	Scenario string
	Plan     string
	Seed     int64
	Digest   uint64 // event-stream digest of the first run
	Stable   bool   // second run with same seed+plan produced same digest
	Injected int64  // faults delivered (link, NIC and crash), summed over every cluster the cell built
	Blocked  []string
	Detail   string // failure description, "" on success
}

// OK reports whether the cell passed: the scenario ran to completion with
// no process left parked, no data error, and a replay-stable digest.
func (r ChaosResult) OK() bool {
	return r.Detail == "" && r.Stable && len(r.Blocked) == 0
}

// chaosCell is one (scenario, plan) cell of the soak matrix.
type chaosCell struct {
	scenario
	plan fault.Plan
}

// chaosCells is the soak matrix: every scenario-table row without a fault
// plan of its own under every standard plan it takes (linkPlan), then each
// remaining row under its own plan.
func chaosCells() []chaosCell {
	var cells []chaosCell
	for _, std := range StandardChaosPlans() {
		for _, s := range scenarios() {
			if plan, ok := linkPlan(s, std); s.plan == nil && ok {
				cells = append(cells, chaosCell{s, plan})
			}
		}
	}
	for _, s := range scenarios() {
		if s.plan != nil {
			cells = append(cells, chaosCell{s, *s.plan})
		}
	}
	return cells
}

// linkUse is how a scenario row takes the standard link-fault plans. Every
// link-fault cell of the seed-1 matrix must draw a link fault (runCell),
// so a row whose mesh packets are too few for the standard rates takes a
// denser plan or none.
type linkUse int

const (
	// linksStandard runs the row under every standard link plan.
	linksStandard linkUse = iota
	// linksDense skips the drop plans and runs lossy-link at ten times
	// its rates: the row's few mesh packets draw no fault at the standard
	// rates.
	linksDense
	// linksNone skips every link plan: the row's packets bypass the
	// injector and the sublayer (comb's combining packets), so no rate
	// lands a fault, and its empty-plan cell is the run a link plan gives.
	linksNone
)

// linkPlan returns the plan row s runs under in place of the standard plan
// p, and false when it skips p. Only link-fault plans are replaced.
func linkPlan(s scenario, p fault.Plan) (fault.Plan, bool) {
	switch {
	case p.Link == (fault.LinkFaults{}):
		return p, true
	case s.links == linksNone:
		return p, false
	case s.links == linksDense:
		return fault.Plan{Name: "lossy-link-x10", Link: fault.LinkFaults{
			DropProb: 0.02, CorruptProb: 0.02, DelayProb: 0.05, ReorderProb: 0.02}}, p.Name == "lossy-link"
	}
	return p, true
}

// RunChaos runs the full soak matrix with the given injector seed, one
// cell after another, and returns the results in matrix order.
func RunChaos(seed int64) []ChaosResult {
	var out []ChaosResult
	for _, c := range chaosCells() {
		out = append(out, c.result(seed))
	}
	return out
}

// result replays the cell under its plan and collects the verdict. The
// fault count and the parked-proc check cover every cluster the first run
// built.
func (c chaosCell) result(seed int64) ChaosResult {
	res := ChaosResult{Scenario: c.name, Plan: c.plan.Name, Seed: seed}
	v := replay(underPlan(c.plan, seed), func(r *run, i int) error {
		_, err := c.run(r)
		if i == 0 {
			_, res.Injected = r.injected()
			res.Blocked = r.stalled()
		}
		return err
	})
	res.Digest, res.Stable, res.Detail = v.digest, v.stable, v.detail
	if res.Detail == "" && len(res.Blocked) > 0 {
		res.Detail = "blocked procs: " + strings.Join(res.Blocked, ", ")
	}
	return res
}

// ChaosOK reports whether every cell of the matrix passed.
func ChaosOK(results []ChaosResult) bool {
	for _, r := range results {
		if !r.OK() {
			return false
		}
	}
	return true
}

// ChaosTable renders the soak matrix for the CLI.
func ChaosTable(results []ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CHAOS — figure scenarios x fault plans (seed %d)\n", results[0].Seed)
	fmt.Fprintf(&b, "%-16s %-26s %8s %6s  %-18s %s\n",
		"scenario", "plan", "faults", "ok", "digest", "detail")
	for _, r := range results {
		status := "PASS"
		if !r.OK() {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-16s %-26s %8d %6s  %-18s %s\n",
			r.Scenario, r.Plan, r.Injected, status, sim.DigestString(r.Digest), r.Detail)
	}
	return b.String()
}

// chaosPattern is the byte the verification stream expects at offset i.
func chaosPattern(i int) byte { return byte(i*131>>4) ^ byte(i) }

// chaosIntegrity streams a patterned byte sequence through a socket (odd
// size, so the staging/alignment path is exercised) and verifies every
// received byte: under a lossy plan with the reliability sublayer on, the
// acknowledged stream must arrive complete and intact.
func chaosIntegrity(r *run) error {
	const size, count = 1531, 24
	var verr error
	fail := func(format string, args ...any) {
		if verr == nil {
			verr = fmt.Errorf(format, args...)
		}
	}
	socketPair(r, socket.ModeDU1,
		func(c *socket.Conn, p *kernel.Process) {
			buf := p.Alloc(size+8, hw.WordSize)
			total := size * count
			got := 0
			for got < total {
				n, err := c.Recv(buf, size)
				if err != nil {
					fail("recv at offset %d: %v", got, err)
					return
				}
				if n == 0 {
					fail("stream ended at %d of %d bytes", got, total)
					return
				}
				for i, by := range p.Peek(buf, n) {
					if want := chaosPattern(got + i); by != want {
						fail("byte %d corrupt: got %#x want %#x", got+i, by, want)
						return
					}
				}
				got += n
			}
		},
		func(c *socket.Conn, p *kernel.Process) {
			buf := p.Alloc(size+8, hw.WordSize)
			chunk := make([]byte, size)
			for i := 0; i < count; i++ {
				for j := range chunk {
					chunk[j] = chaosPattern(i*size + j)
				}
				p.Poke(buf, chunk)
				if _, err := c.Send(buf, size); err != nil {
					fail("send %d: %v", i, err)
					break
				}
			}
			if err := c.Close(); err != nil {
				fail("close: %v", err)
			}
		})
	return verr
}

// chaosCrashRecovery is the acceptance scenario for node death: a sender
// streams to two exporters; one exporter's node is crashed mid-transfer by
// the plan. The survivors' daemons must reclaim the dead node's mappings
// (sends to it turn into vmmc.ErrPeerDead instead of silent writes through
// freed page-table entries), transfers to the surviving node must keep
// working, and fresh imports must still succeed — the cluster stays usable.
func chaosCrashRecovery(r *run) error {
	cl := r.cluster(cluster.Config{})
	var verr error
	fail := func(format string, args ...any) {
		if verr == nil {
			verr = fmt.Errorf(format, args...)
		}
	}
	const doneFlag = 0xD00E
	ready := 0
	readyCond := sim.NewCond(cl.Eng)
	exporter := func(node int) {
		cl.Spawn(node, "rx", func(p *kernel.Process) {
			ep := vmmc.Attach(p, cl.Node(node).Daemon)
			va := p.MapPages(1, 0)
			if _, err := ep.Export(va, 1, vmmc.ExportOpts{Name: "rx"}); err != nil {
				fail("export on node %d: %v", node, err)
				return
			}
			ready++
			readyCond.Broadcast()
			p.WaitWord(va, func(v uint32) bool { return v == doneFlag })
		})
	}
	exporter(1)
	exporter(2)
	cl.Spawn(0, "tx", func(p *kernel.Process) {
		for ready < 2 {
			readyCond.Wait(p.P)
		}
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		imp1, err := ep.Import(1, "rx")
		if err != nil {
			fail("import from node 1: %v", err)
			return
		}
		imp2, err := ep.Import(2, "rx")
		if err != nil {
			fail("import from node 2: %v", err)
			return
		}
		src := p.Alloc(256+8, hw.WordSize)
		body := make([]byte, 256)
		for i := range body {
			body[i] = chaosPattern(i)
		}
		p.Poke(src, body)
		sawDead := false
		for i := 0; i < 150; i++ {
			if err := ep.Send(imp1, 64, src, 256); err != nil {
				fail("send to survivor failed at iter %d: %v", i, err)
				return
			}
			switch err := ep.Send(imp2, 64, src, 256); {
			case err == nil:
				// Before the crash, or in the window before the death
				// announcement lands (the mesh silently drops then).
			case errors.Is(err, vmmc.ErrPeerDead):
				sawDead = true
			default:
				fail("unexpected error sending to crashed peer: %v", err)
				return
			}
			p.P.Sleep(50 * time.Microsecond)
		}
		if !sawDead {
			fail("never observed ErrPeerDead after the crash")
			return
		}
		// The cluster is still usable: a fresh import from the survivor
		// works and carries data.
		imp1b, err := ep.Import(1, "rx")
		if err != nil {
			fail("re-import from survivor: %v", err)
			return
		}
		if err := ep.Send(imp1b, 64, src, 256); err != nil {
			fail("post-crash transfer to survivor: %v", err)
			return
		}
		// And the dead node is cleanly unreachable, not a hang.
		if _, err := ep.Import(2, "rx"); err == nil {
			fail("import from dead node unexpectedly succeeded")
			return
		}
		// Release the survivor's receiver.
		flag := p.Alloc(8, hw.WordSize)
		p.WriteWord(flag, doneFlag)
		if err := ep.Send(imp1b, 0, flag, 4); err != nil {
			fail("final flag send: %v", err)
		}
	})
	cl.Run()
	if verr != nil {
		return verr
	}
	if cl.Node(0).Daemon.ReapedImports == 0 {
		return fmt.Errorf("survivor daemon reaped no imports from the dead node")
	}
	return nil
}

// DegradedPoint is one row of the degraded-mode throughput table.
type DegradedPoint struct {
	DropPct     float64
	RTripUS     float64
	MBPerSec    float64
	Retransmits int64
}

// DegradedFig5 measures the Figure 5 AU-mode RPC echo at the given link
// drop rates with the reliability sublayer enabled — the EXPERIMENTS.md
// degraded-mode table. At 0% drop the numbers must match the calibrated
// figure (the sublayer's acks ride a sideband, so an idle injector costs
// nothing on the data path).
func DegradedFig5(size, iters int, seed int64, drops []float64) []DegradedPoint {
	var out []DegradedPoint
	for _, d := range drops {
		plan := fault.Plan{
			Name: fmt.Sprintf("drop-%g%%", d*100),
			Link: fault.LinkFaults{DropProb: d},
		}
		r := &run{mod: func(cfg *cluster.Config) {
			cfg.FaultPlan = &plan
			cfg.FaultSeed = seed
			cfg.Reliable = true
		}}
		rt, bw := vrpcPingPong(r, sunrpc.ModeAU, size, iters)
		out = append(out, DegradedPoint{DropPct: d * 100, RTripUS: rt, MBPerSec: bw, Retransmits: r.retransmits()})
		r.close()
	}
	return out
}

// DegradedTable renders the degraded-mode measurements.
func DegradedTable(points []DegradedPoint, size int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "DEGRADED — Fig 5 VRPC AU-1copy echo, %d B, retransmit sublayer ON\n", size)
	fmt.Fprintf(&b, "%10s %14s %12s %12s\n", "drop(%)", "roundtrip(us)", "bw(MB/s)", "retransmits")
	for _, p := range points {
		fmt.Fprintf(&b, "%10.2f %14.2f %12.2f %12d\n", p.DropPct, p.RTripUS, p.MBPerSec, p.Retransmits)
	}
	return b.String()
}
