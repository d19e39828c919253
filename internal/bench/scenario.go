package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"shrimp/internal/app"
	"shrimp/internal/cluster"
	"shrimp/internal/fault"
	"shrimp/internal/nx"
	"shrimp/internal/socket"
	"shrimp/internal/sunrpc"
	"shrimp/internal/trace"
)

// scenario is one row of the scenario table: a single-point run of one
// layer of the stack, small enough to trace and to repeat under every
// fault plan.
type scenario struct {
	name string
	// plan is the fault plan the row needs of its own; rows without one
	// run under the standard chaos plans, the link-fault ones as links says.
	plan *fault.Plan
	// links is how the row takes the standard link-fault plans.
	links linkUse
	// sweep builds the row's full paper figure, for rows that have one.
	sweep func(iters int) *Figure
	// run executes the scenario inside r and describes what it ran.
	run func(r *run) (string, error)
}

// scenarios is the scenario table, the one list of what the harness runs:
// TraceFigure picks a row by name, RunFigures builds the rows' sweeps, the
// chaos soak runs every row under the fault plans, and the determinism
// manifest and shutdown tests enumerate the same rows. A full figure sweep
// builds dozens of independent clusters, and a trace across all of them
// would interleave unrelated virtual timelines; each figure's row is
// therefore its most telling single point. The order is the chaos matrix's order.
func scenarios() []scenario {
	const iters = 4
	rows := []scenario{
		{name: "fig3", sweep: Fig3, links: linksDense, run: func(r *run) (string, error) {
			lat, bw := vmmcPingPong(r, DU0copy, 4096, iters)
			return fmt.Sprintf("fig3: VMMC %s, 4096 B x%d round trips: %.2f us one-way, %.1f MB/s",
				DU0copy, iters, lat, bw), nil
		}},
		{name: "fig4", sweep: Fig4, run: func(r *run) (string, error) {
			lat, bw := nxPingPong(r, nx.ProtoDefault, 4096, iters)
			return fmt.Sprintf("fig4: NX default protocol, 4096 B x%d round trips: %.2f us one-way, %.1f MB/s",
				iters, lat, bw), nil
		}},
		{name: "fig5", sweep: Fig5, run: func(r *run) (string, error) {
			rt, bw := vrpcPingPong(r, sunrpc.ModeAU, 1024, iters)
			return fmt.Sprintf("fig5: VRPC %s echo, 1024 B x%d calls: %.2f us roundtrip, %.1f MB/s",
				sunrpc.ModeAU, iters, rt, bw), nil
		}},
		{name: "fig7", sweep: Fig7, run: func(r *run) (string, error) {
			lat, bw := socketPingPong(r, socket.ModeDU1, 4096, iters)
			return fmt.Sprintf("fig7: sockets %s, 4096 B x%d round trips: %.2f us one-way, %.1f MB/s",
				socket.ModeDU1, iters, lat, bw), nil
		}},
		{name: "fig8", sweep: Fig8, links: linksDense, run: func(r *run) (string, error) {
			rt := srpcNull(r, 256, iters)
			return fmt.Sprintf("fig8: SRPC null, 256 B INOUT x%d calls: %.2f us roundtrip",
				iters, rt), nil
		}},
		{name: "ttcp", run: func(r *run) (string, error) {
			mbps := socketStream(r, socket.ModeDU1, 7168, 16, TTCPPerWrite, TTCPPerByte)
			return fmt.Sprintf("ttcp: sockets %s, 7168 B x16 one-way: %.2f MB/s",
				socket.ModeDU1, mbps), nil
		}},
		// Shared virtual memory: a short Jacobi run plus a lock-counter
		// phase, both result-verified.
		{name: "svm", run: func(r *run) (string, error) {
			res, err := svmJacobiVerified(r)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("svm: %d-node Jacobi on shared memory, %d cells x%d sweeps: %.2f us/sweep, %d fetches; lock counter verified",
				res.Nodes, res.Cells, res.Sweeps, res.PerSweepUS, res.Fetches), nil
		}},
		// Sharded KV serving: generated client load over the 4-node
		// cluster, served quantiles reported.
		{name: "app", run: func(r *run) (string, error) {
			var st AppServeStats
			if err := appServe(r, chaosAppOpts(), &st); err != nil {
				return "", err
			}
			return fmt.Sprintf("app: %d-node sharded KV, %d sessions, %d ops served: get.srv p50 %v, p99 %v",
				st.Nodes, st.Sessions, st.Completed,
				time.Duration(st.P50[app.ClassGetSrv]), time.Duration(st.P99[app.ClassGetSrv])), nil
		}},
		{name: "integrity", run: checked("integrity: patterned socket stream over DU-1copy, every byte verified",
			chaosIntegrity)},
		// In-network combining: the NX collectives on the router
		// reduction tree, every sum checked exactly.
		{name: "comb", links: linksNone, run: func(r *run) (string, error) {
			var desc []string
			for _, dims := range [][]int{{2, 2, 2}, {4, 4}} {
				gsync, gdsum, err := combCollectives(r, dims, iters)
				if err != nil {
					return "", err
				}
				desc = append(desc, fmt.Sprintf("%s Gsync %.3f us, Gdsum %.3f us",
					dimsLabel(dims), gsync.Seconds()*1e6, gdsum.Seconds()*1e6))
			}
			return fmt.Sprintf("comb: combining collectives x%d, every sum exact: %s",
				iters, strings.Join(desc, "; ")), nil
		}},
		// The NX paths Figure 4's ping-pong leaves out: continuation
		// chunks, probes and self sends; asynchronous large transfers
		// beyond the zero-copy ring.
		{name: "nx-chunked", links: linksDense, run: func(r *run) (string, error) {
			const size = 9216
			rt, err := nxChunked(r, size)
			return fmt.Sprintf("nx-chunked: NX DU-2copy, %d B each way with probes and self sends, every byte and info field checked: %.2f us round trip",
				size, rt), err
		}},
		{name: "nx-isend", run: func(r *run) (string, error) {
			const count, size = nx.MaxZC + 1, 4096
			us, err := nxIsends(r, count, size)
			return fmt.Sprintf("nx-isend: NX Isend/Irecv/Msgwait, %d x %d B zero-copy outstanding at once, every byte checked: %.2f us",
				count, size, us), err
		}},
		{name: "nx-doorbell", run: func(r *run) (string, error) {
			const count, size = 3 * nx.NumPkt, 64
			rang, us, err := nxDoorbell(r, count, size)
			return fmt.Sprintf("nx-doorbell: NX AU-2copy, %d x %d B one way past the %d-buffer credit window, receiver computing: %d doorbells, %.2f us",
				count, size, nx.NumPkt, rang, us), err
		}},
		// VMMC notifications: queued while blocked, drained in order,
		// discarded per buffer, and the fast path.
		{name: "notify", links: linksDense, run: func(r *run) (string, error) {
			sig, fast, err := vmmcNotify(r)
			return fmt.Sprintf("notify: VMMC notifications, %d signal-path (5 queued while blocked, 1 discarded) and %d fast, every source checked in order, then unimported and unexported: signal %.2f us, fast %.2f us",
				len(notifySeq), notifyFast, sig, fast), err
		}},
		// 5 ms lands inside the sender's transfer loop: the two Ethernet
		// import handshakes alone take over a millisecond of virtual time.
		{name: "crash-recovery", plan: &fault.Plan{Name: "crash-node2-mid-transfer", Crashes: []fault.Crash{
			{Node: 2, At: 5 * time.Millisecond},
		}}, run: checked("crash-recovery: node 2 crashed mid-transfer; the survivor kept working and the dead peer was reaped",
			chaosCrashRecovery)},
		// The serving-stack failover cell schedules its own crash, restart,
		// and rejoin; the empty plan just keeps the injector armed.
		{name: "app-failover", plan: &fault.Plan{Name: "primary-crash-rejoin"},
			run: checked("app-failover: a primary crashed under load, failed over, rejoined and resynced",
				chaosAppFailover)},
	}
	// The partition quadrant: each cell schedules its own sever/heal
	// through the armed injector and verifies acked-write durability.
	for _, c := range appPartitionCells() {
		rows = append(rows, scenario{name: c.name, plan: &fault.Plan{Name: c.name},
			run: checked(c.name+": severed and healed under load; acknowledged writes re-verified",
				func(r *run) error { return appServe(r, appPartitionOpts(c), nil) })})
	}
	return rows
}

// FigureIDs lists the standard figures RunFigures builds, in output order:
// the scenario-table rows that have a figure sweep.
func FigureIDs() []string {
	var ids []string
	for _, s := range scenarios() {
		if s.sweep != nil {
			ids = append(ids, s.name)
		}
	}
	return ids
}

// RunFigures builds the requested standard figures in FigureIDs order,
// skipping ids that are not standard figures.
func RunFigures(ids []string, iters int) []*Figure {
	var out []*Figure
	for _, s := range scenarios() {
		if s.sweep != nil && slices.Contains(ids, s.name) {
			out = append(out, s.sweep(iters))
		}
	}
	return out
}

// checked adapts a body that only verifies into a table row's run.
func checked(desc string, body func(r *run) error) func(r *run) (string, error) {
	return func(r *run) (string, error) { return desc, body(r) }
}

// underPlan is the config rewriter that arms plan with seed. Plans that
// fault links run with the mesh reliability sublayer on (the stack under
// test); the rest run on the raw backplane.
func underPlan(plan fault.Plan, seed int64) func(*cluster.Config) {
	reliable := plan.Link != (fault.LinkFaults{})
	return func(cfg *cluster.Config) {
		p := plan
		cfg.FaultPlan = &p
		cfg.FaultSeed = seed
		cfg.Reliable = reliable
	}
}

// TraceFigure runs the named row of the scenario table with the
// observability collector attached to every cluster it builds (a row with
// its own fault plan runs under it, seed 1), and returns a one-line
// description of what ran:
//
//	fig3 — raw VMMC, DU-0copy, 4096-byte ping-pong
//	fig4 — NX, adaptive default protocol, 4096-byte ping-pong
//	fig5 — VRPC echo, AU-1copy, 1024-byte argument and result
//	fig7 — sockets, DU-1copy, 4096-byte ping-pong
//	fig8 — SRPC null call with a 256-byte INOUT argument
//	ttcp — ttcp streaming, DU-1copy, 7168-byte buffers
//	svm  — shared virtual memory: Jacobi plus a lock-counter phase
//	app  — sharded KV serving under generated client load
//	comb — NX Gsync, Gisum, Gdsum on in-network combining meshes
//	nx-chunked — NX DU-2copy 9216-byte exchange with probes and self sends
//	nx-isend — NX Isend/Irecv/Msgwait, MaxZC+1 zero-copy sends at once
//	nx-doorbell — NX credit exhaustion: the sender rings the receiver's doorbell
//	notify — VMMC notifications, blocked, drained, discarded and fast; teardown
//
// and the fault-recovery rows the chaos soak adds (integrity,
// crash-recovery, app-failover, and the part-* partition cells).
func TraceFigure(name string, tc *trace.Collector) (string, error) {
	var names []string
	for _, s := range scenarios() {
		if s.name != name {
			names = append(names, s.name)
			continue
		}
		r := &run{trace: tc}
		if s.plan != nil {
			r.mod = underPlan(*s.plan, 1)
		}
		defer r.close()
		return s.run(r)
	}
	return "", fmt.Errorf("no traced scenario for %q; pick one of %s", name, strings.Join(names, ","))
}
