// Command shrimpbench regenerates every table and figure in the paper's
// evaluation (Sections 3.4–5) on the simulated SHRIMP multicomputer, and
// runs the harness's own suites. -fig picks one mode:
//
//	all     — every paper mode below, in order (the default)
//	fig3    — raw VMMC latency/bandwidth (4 transfer strategies)
//	fig4    — NX message passing (5 protocol variants + adaptive default)
//	fig5    — SunRPC-compatible VRPC (DU-1copy, AU-1copy)
//	fig7    — stream sockets (AU-2copy, DU-1copy, DU-2copy)
//	fig8    — compatible vs non-compatible RPC (INOUT argument sweep)
//	peak    — the Section 3.4 headline numbers
//	ttcp    — the Section 4.3 ttcp results
//	rpcbase — VRPC vs the conventional-network (Ethernet) SunRPC baseline
//	ablate  — ablations of the Section 6 design decisions (combining,
//	          polling vs notifications, software multicast, 16-node scaling)
//
// or one of the suites faults, partition, svm, app, meshscale and
// meshsmoke, described below.
//
// Usage:
//
//	shrimpbench [-fig MODE] [-iters N] [-faultseed N]
//	            [-cpuprofile FILE]
//	shrimpbench -fig SCENARIO [-trace out.json] [-stats]
//
// -iters N must be at least 1. -cpuprofile FILE writes a host CPU profile
// of the whole run to FILE for `go tool pprof`; simulation output does not
// change. Every mode runs its simulations one after another on one thread.
//
// -fig meshscale runs the big-mesh scaling study: 64, 256, and 1024 nodes
// on k-ary n-cube geometries, with in-network combining off and on,
// reporting corner-to-corner latency/bandwidth, collective times, and
// link-contention quantiles. Every cell runs twice and its replay digests
// must be byte-identical; at 256+ nodes combining must beat the software
// collectives. -fig meshsmoke is the tiny tier-1 variant.
//
// -fig svm runs the shared-virtual-memory comparison: the same 1-D Jacobi
// stencil over NX message passing and over internal/svm release-consistent
// shared memory, at 2, 4, and 8 nodes, reporting per-sweep virtual time
// side by side.
//
// -fig app runs the sharded-KV serving workload: first the offered-load
// ramp behind the EXPERIMENTS.md capacity table (4 nodes, throughput and
// served quantiles vs load through saturation), then the acceptance
// scenario — a million deterministic client sessions over 8 nodes with a
// non-gateway primary crashed, restarted, and resynced mid-load, run twice
// under the replay digest, reporting p50/p99/p999 per op class and the
// measured recovery time.
//
// -fig partition runs the partition-tolerance cells standalone: a two-node
// minority group, an isolated primary, an asymmetric (outbound-only) cut,
// and a flapping link, each severed and healed mid-load through the fault
// injector seeded by -faultseed. The table reports failovers, epoch-fence
// rejections, quorum-vetoed down-reports, re-verified acknowledged writes,
// and the measured recovery time; every cell runs twice under the replay
// digest.
//
// -fig faults runs the chaos soak matrix: every scenario under a set of
// fault plans seeded by -faultseed (lossy links with the retransmission
// sublayer on, NIC fault storms, a mid-transfer node crash, link
// partitions against the serving stack), checking termination, data
// integrity, and replay-stable digests, plus the degraded-mode Fig 5
// throughput table. Exits non-zero if any cell fails.
//
// With -trace or -stats, shrimpbench instead runs ONE scenario — a figure's
// most telling point (fig3 … fig8, ttcp), svm, app, comb, or one of the chaos
// soak's recovery cells — with the observability layer attached: -trace
// writes a Chrome trace-event JSON file (load it in Perfetto /
// chrome://tracing) and -stats prints the span/counter/histogram summary.
// Traces are deterministic: two runs of the same scenario produce
// byte-identical files.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"shrimp/internal/bench"
	"shrimp/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options carries the flags the modes read.
type options struct {
	iters     int
	faultSeed int64
}

// defaultIters is the -iters default, at which results/shrimpbench_output.txt
// was generated.
const defaultIters = 8

// mode is one -fig value. It prints its tables to w.
type mode struct {
	name string
	run  func(w io.Writer, o options) error
}

// modes is the -fig table. all runs the paper modes, which come first, in
// table order.
func modes() []mode {
	ms := []mode{{"all", runAll}, {"peak", peak}}
	for _, id := range bench.FigureIDs() {
		ms = append(ms, mode{id, func(w io.Writer, o options) error { return figures(w, o, []string{id}) }})
	}
	return append(ms, []mode{
		{"ttcp", ttcp}, {"rpcbase", rpcbase}, {"ablate", ablate},
		{"faults", faults}, {"partition", partition}, {"svm", svmCompare},
		{"app", appServe}, {"meshscale", meshScale}, {"meshsmoke", meshSmoke},
	}...)
}

// run parses the command line args, runs the selected mode with its output
// on stdout and its errors on stderr, and returns the process exit status,
// so deferred cleanup (the CPU profile) runs on every path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shrimpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "which mode to run (see the package doc), or with -trace/-stats which scenario")
	iters := fs.Int("iters", defaultIters, "ping-pong iterations per point")
	tracePath := fs.String("trace", "", "write a Chrome trace of one -fig scenario to this file")
	stats := fs.Bool("stats", false, "print the trace summary of one -fig scenario")
	faultSeed := fs.Int64("faultseed", 1, "fault injector seed for -fig faults and -fig partition")
	cpuProfile := fs.String("cpuprofile", "", "write a host CPU profile of whichever mode runs to this file (read it with go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if err := checkIters(*iters); err != nil {
		fmt.Fprintf(stderr, "shrimpbench: %v\n", err)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "shrimpbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "shrimpbench: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "shrimpbench: %v\n", err)
			}
		}()
	}

	if *tracePath != "" || *stats {
		return traceScenario(stdout, stderr, *fig, *tracePath, *stats)
	}

	o := options{iters: *iters, faultSeed: *faultSeed}
	var names []string
	for _, m := range modes() {
		if m.name != *fig {
			names = append(names, m.name)
			continue
		}
		if err := m.run(stdout, o); err != nil {
			fmt.Fprintf(stderr, "shrimpbench: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "unknown -fig %q; want one of %s\n", *fig, strings.Join(names, ","))
	return 2
}

// checkIters rejects an iteration count below one: the figures divide
// their measured time by it.
func checkIters(n int) error {
	if n < 1 {
		return fmt.Errorf("-iters %d: want at least 1", n)
	}
	return nil
}

// traceScenario runs one scenario with the observability layer attached.
func traceScenario(w, stderr io.Writer, name, tracePath string, stats bool) int {
	tc := trace.New()
	desc, err := bench.TraceFigure(name, tc)
	if err != nil {
		fmt.Fprintf(stderr, "shrimpbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(w, desc)
	if tracePath != "" {
		if err := tc.WriteChromeTrace(tracePath); err != nil {
			fmt.Fprintf(stderr, "shrimpbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(w, "wrote %s (%d spans, %d engine events)\n",
			tracePath, len(tc.Spans()), tc.EngineEvents())
	}
	if stats {
		fmt.Fprintln(w)
		fmt.Fprint(w, tc.Summary())
	}
	return 0
}

// runAll runs the paper modes in order: the headline numbers, every
// figure, ttcp, the RPC baseline, and the ablations.
func runAll(w io.Writer, o options) error {
	all := func(w io.Writer, o options) error { return figures(w, o, bench.FigureIDs()) }
	for _, m := range []func(io.Writer, options) error{peak, all, ttcp, rpcbase, ablate} {
		if err := m(w, o); err != nil {
			return err
		}
	}
	return nil
}

func peak(w io.Writer, _ options) error {
	r := bench.RunPeak()
	fmt.Fprintln(w, "PEAK — Section 3.4 headline numbers")
	fmt.Fprintf(w, "  %-44s %8s %10s\n", "metric", "paper", "measured")
	fmt.Fprintf(w, "  %-44s %8s %9.2fus\n", "AU one-word latency (write-through)", "4.75us", r.AUWordWTus)
	fmt.Fprintf(w, "  %-44s %8s %9.2fus\n", "AU one-word latency (uncached)", "3.70us", r.AUWordUncachedUS)
	fmt.Fprintf(w, "  %-44s %8s %9.2fus\n", "DU one-word latency", "7.60us", r.DUWordUS)
	fmt.Fprintf(w, "  %-44s %8s %6.1fMB/s\n", "DU-0copy bandwidth at 10KB", "~23MB/s", r.DU0copyMBs)
	fmt.Fprintf(w, "  %-44s %8s %6.1fMB/s\n", "AU-1copy bandwidth at 10KB", "<DU", r.AU1copyMBs)
	fmt.Fprintln(w)
	return nil
}

// figures builds the given standard figures and prints their tables.
// Their CSVs are golden files under results/, written by make golden.
func figures(w io.Writer, o options, ids []string) error {
	for _, f := range bench.RunFigures(ids, o.iters) {
		if f.ID == "fig8" {
			// Figure 8 is a single latency plot over its own sweep.
			fmt.Fprint(w, f.LatencyTable(1<<20))
		} else {
			fmt.Fprint(w, f.LatencyTable(64))
			fmt.Fprintln(w)
			fmt.Fprint(w, f.BandwidthTable(64))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func ttcp(w io.Writer, _ options) error {
	r := bench.RunTTCP()
	fmt.Fprintln(w, "TTCP — Section 4.3")
	fmt.Fprintf(w, "  %-40s %8s %9.2f MB/s\n", "ttcp, 7 Kbyte messages", "8.6", r.TTCP7K)
	fmt.Fprintf(w, "  %-40s %8s %9.2f MB/s\n", "one-way microbenchmark, 7 Kbyte", "9.8", r.Micro7K)
	fmt.Fprintf(w, "  %-40s %8s %9.2f MB/s\n", "ttcp, 70 byte messages", "1.3", r.TTCP70)
	fmt.Fprintf(w, "  %-40s %8s %9.2f MB/s\n", "(Ethernet peak, for reference)", "1.25", r.EthernetPeak)
	fmt.Fprintln(w)
	return nil
}

func rpcbase(w io.Writer, _ options) error {
	r := bench.RunRPCBaseline()
	fmt.Fprintln(w, "RPCBASE — null RPC: VMMC stream vs conventional network")
	fmt.Fprintf(w, "  %-40s %9.1f us\n", "VRPC over SBL (AU-1copy)", r.SBLNullUS)
	fmt.Fprintf(w, "  %-40s %9.1f us\n", "SunRPC over 10Mb/s Ethernet", r.EtherNullUS)
	fmt.Fprintf(w, "  %-40s %9.1fx\n", "speedup", r.Speedup)
	fmt.Fprintln(w)
	return nil
}

func ablate(w io.Writer, _ options) error {
	fmt.Fprintln(w, "ABLATE — design-decision ablations (paper Section 6)")
	for _, row := range bench.RunAblations() {
		note := ""
		if row.Note != "" {
			note = "  (" + row.Note + ")"
		}
		fmt.Fprintf(w, "  %-44s %9.2f %s%s\n", row.Name, row.Value, row.Unit, note)
	}
	fmt.Fprintln(w)
	return nil
}

func faults(w io.Writer, o options) error {
	results := bench.RunChaos(o.faultSeed)
	fmt.Fprint(w, bench.ChaosTable(results))
	fmt.Fprintln(w)
	points := bench.DegradedFig5(1024, 32, o.faultSeed, []float64{0, 0.001, 0.01})
	fmt.Fprint(w, bench.DegradedTable(points, 1024))
	if !bench.ChaosOK(results) {
		return errors.New("chaos soak FAILED")
	}
	return nil
}

func partition(w io.Writer, o options) error {
	rows, err := bench.RunAppPartition(o.faultSeed)
	fmt.Fprint(w, bench.AppPartitionTable(rows))
	return err
}

func svmCompare(w io.Writer, _ options) error {
	const cells, sweeps = 256, 40
	rows := bench.JacobiCompare(cells, sweeps, []int{2, 4, 8})
	fmt.Fprint(w, bench.JacobiTable(rows, cells, sweeps))
	for _, r := range rows {
		if !r.Match {
			return errors.New("SVM and NX results diverged")
		}
	}
	return nil
}

func appServe(w io.Writer, _ options) error {
	rows, err := bench.AppRamp([]float64{5e5, 1e6, 2e6, 4e6, 8e6})
	if err != nil {
		return err
	}
	fmt.Fprint(w, bench.AppRampTable(rows))
	fmt.Fprintln(w)
	res, err := bench.RunAppServe(bench.AcceptanceAppOpts())
	if err != nil {
		return err
	}
	fmt.Fprint(w, bench.AppServeTable(res))
	return nil
}

func meshScale(w io.Writer, _ options) error {
	rows := bench.RunMeshScale(bench.DefaultMeshScaleGeometries())
	fmt.Fprint(w, bench.MeshScaleTable(rows))
	return bench.MeshScaleOK(rows)
}

func meshSmoke(w io.Writer, _ options) error {
	if err := bench.RunMeshScaleSmoke(); err != nil {
		return err
	}
	fmt.Fprintln(w, "meshscale smoke: ok")
	return nil
}
