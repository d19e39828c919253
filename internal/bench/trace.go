package bench

import (
	"fmt"
	"time"

	"shrimp/internal/app"
	"shrimp/internal/nx"
	"shrimp/internal/socket"
	"shrimp/internal/sunrpc"
	"shrimp/internal/trace"
)

// TraceFigure runs ONE representative scenario of the given figure with the
// observability collector attached to the cluster, and returns a one-line
// description of what ran. A full figure sweep builds dozens of independent
// clusters, and a trace across all of them would interleave unrelated
// virtual timelines; tracing therefore picks the figure's most interesting
// single point:
//
//	fig3 — raw VMMC, DU-0copy, 4096-byte ping-pong
//	fig4 — NX, adaptive default protocol, 4096-byte ping-pong
//	fig5 — VRPC echo, AU-1copy, 1024-byte argument and result
//	fig7 — sockets, DU-1copy, 4096-byte ping-pong
//	fig8 — SRPC null call with a 256-byte INOUT argument
//	ttcp — ttcp streaming, DU-1copy, 7168-byte buffers
//	svm  — shared virtual memory: a short Jacobi run plus a lock-counter
//	       phase, both result-verified (the chaos soak reuses this cell)
//	app  — sharded KV serving: generated client load over the 4-node
//	       cluster, served quantiles reported (the chaos soak reuses this
//	       cell too)
func TraceFigure(figID string, tc *trace.Collector) (string, error) {
	r := &run{trace: tc}
	defer r.close()
	return traceFigure(r, figID)
}

// traceFigure runs TraceFigure's scenario inside r; the chaos soak runs
// the same cells under its own contexts.
func traceFigure(r *run, figID string) (string, error) {
	const iters = 4
	switch figID {
	case "fig3":
		lat, bw := vmmcPingPong(r, DU0copy, 4096, iters)
		return fmt.Sprintf("fig3: VMMC %s, 4096 B x%d round trips: %.2f us one-way, %.1f MB/s",
			DU0copy, iters, lat, bw), nil
	case "fig4":
		lat, bw := nxPingPong(r, nx.ProtoDefault, 4096, iters)
		return fmt.Sprintf("fig4: NX default protocol, 4096 B x%d round trips: %.2f us one-way, %.1f MB/s",
			iters, lat, bw), nil
	case "fig5":
		rt, bw := vrpcPingPong(r, sunrpc.ModeAU, 1024, iters)
		return fmt.Sprintf("fig5: VRPC %s echo, 1024 B x%d calls: %.2f us roundtrip, %.1f MB/s",
			sunrpc.ModeAU, iters, rt, bw), nil
	case "fig7":
		lat, bw := socketPingPong(r, socket.ModeDU1, 4096, iters)
		return fmt.Sprintf("fig7: sockets %s, 4096 B x%d round trips: %.2f us one-way, %.1f MB/s",
			socket.ModeDU1, iters, lat, bw), nil
	case "fig8":
		rt := srpcNull(r, 256, iters)
		return fmt.Sprintf("fig8: SRPC null, 256 B INOUT x%d calls: %.2f us roundtrip",
			iters, rt), nil
	case "ttcp":
		mbps := socketStream(r, socket.ModeDU1, 7168, 16, TTCPPerWrite, TTCPPerByte)
		return fmt.Sprintf("ttcp: sockets %s, 7168 B x16 one-way: %.2f MB/s",
			socket.ModeDU1, mbps), nil
	case "svm":
		res, err := svmJacobiVerified(r)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("svm: %d-node Jacobi on shared memory, %d cells x%d sweeps: %.2f us/sweep, %d fetches; lock counter verified",
			res.Nodes, res.Cells, res.Sweeps, res.PerSweepUS, res.Fetches), nil
	case "app":
		var st AppServeStats
		if err := appServe(r, chaosAppOpts(), &st); err != nil {
			return "", err
		}
		return fmt.Sprintf("app: %d-node sharded KV, %d sessions, %d ops served: get.srv p50 %v, p99 %v",
			st.Nodes, st.Sessions, st.Completed,
			time.Duration(st.P50[app.ClassGetSrv]), time.Duration(st.P99[app.ClassGetSrv])), nil
	default:
		return "", fmt.Errorf("no traced scenario for %q; pick one of fig3,fig4,fig5,fig7,fig8,ttcp,svm,app", figID)
	}
}
