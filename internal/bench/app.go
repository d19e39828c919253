// Serving-workload harness: the sharded KV subsystem (internal/app) driven
// by the deterministic load generator (internal/app/loadgen) at benchmark
// scale. Three surfaces:
//
//   - RunAppServe — the acceptance scenario behind `shrimpbench -fig app`: a
//     million client sessions over an 8-node mesh, a primary crashed and
//     rejoined mid-load, run twice under the replay digest.
//   - AppRamp — the offered-load ramp behind the EXPERIMENTS.md table:
//     throughput and served-latency quantiles vs offered load, through
//     saturation into admission-controlled overload.
//   - chaosAppFailover and the partition cells — the scenario-table rows
//     that put the serving stack through a crash and through link
//     partitions.
package bench

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"shrimp/internal/app"
	"shrimp/internal/app/loadgen"
	"shrimp/internal/cluster"
	"shrimp/internal/fault"
	"shrimp/internal/sim"
)

// AppServeOpts parameterizes one serving run.
type AppServeOpts struct {
	MeshX, MeshY int
	Sessions     int
	Gateways     []int
	Rate         float64
	Duration     time.Duration
	WriteFrac    float64
	BatchOps     int
	// Crash, when >= 0, crashes that node at CrashAt and restarts+rejoins
	// it RestartAfter later — aim it at a non-gateway node.
	Crash        int
	CrashAt      time.Duration
	RestartAfter time.Duration
	// Partition, when non-empty, severs that node set from the rest of the
	// mesh at PartitionAt (OneWay cuts only their outbound direction),
	// heals HealAfter after detection, and reconnects the victims; Flap
	// repeats the cycle. Requires the fault injector armed (a FaultPlan on
	// the cluster, empty is enough). Unlike Crash, the victims keep their
	// memory: the heal path is Reconnect (epoch-fenced handback), not
	// Rejoin (resync from scratch).
	Partition   []int
	PartitionAt time.Duration
	HealAfter   time.Duration
	OneWay      bool
	Flap        int
	// TrackAcks turns on the generator's acknowledged-write ledger so the
	// run can assert durability and stale-read freedom afterwards.
	TrackAcks bool

	appCfg app.Config // zero = defaults; the chaos cells tighten deadlines
}

// AppServeStats is what one run of the scenario measured.
type AppServeStats struct {
	Nodes, Shards                int
	Sessions, Requests, Admitted int64
	Completed, Shed, Retries     int64
	Failovers, ResyncKeys        int64
	EpochRejected, Vetoed        int64
	StaleReads, AckedPuts        int64
	DepthHW                      int64
	P50, P99, P999               [4]int64
	ThroughputOpsSec             float64
	MakespanNS                   int64
	Recovery                     time.Duration
}

// AppServeResult is the acceptance verdict: the stats of the first run plus
// the determinism comparison against the second.
type AppServeResult struct {
	AppServeStats
	Digest uint64
	Stable bool
}

// appServe runs one serving scenario to completion and fills stats. It
// validates what every run must satisfy — the generator drained and no
// value or protocol corruption — and, when a crash was scheduled, that
// failover was detected, recovery completed, and the rejoined follower was
// resynced. The cluster is r's to shut down.
func appServe(r *run, opts AppServeOpts, stats *AppServeStats) error {
	cl := r.cluster(cluster.Config{MeshX: opts.MeshX, MeshY: opts.MeshY})
	acfg := opts.appCfg
	acfg.Trace = r.trace
	if len(opts.Partition) > 0 && cl.Fault == nil {
		return fmt.Errorf("app: partition scheduled but the fault injector is not armed")
	}
	a, err := app.Start(cl, acfg)
	if err != nil {
		return err
	}
	g, err := loadgen.Start(a, loadgen.Config{
		Sessions:  opts.Sessions,
		Gateways:  opts.Gateways,
		Rate:      opts.Rate,
		Duration:  opts.Duration,
		WriteFrac: opts.WriteFrac,
		BatchOps:  opts.BatchOps,
		TrackAcks: opts.TrackAcks,
	})
	if err != nil {
		return err
	}
	if opts.Crash >= 0 {
		// Crash relative to the start of generated traffic: the warmup
		// rendezvous phase that precedes it is long and topology-dependent.
		cl.Eng.Spawn("crash-sched", func(p *sim.Proc) {
			g.WaitStarted(p)
			p.Sleep(opts.CrashAt)
			cl.CrashNode(opts.Crash)
			// Repair only after the outage was noticed: a rejoin ahead of
			// detection would be silently ignored.
			a.WaitDown(p, opts.Crash)
			p.Sleep(opts.RestartAfter)
			cl.RestartNode(opts.Crash)
			a.Rejoin(opts.Crash)
		})
	}
	if len(opts.Partition) > 0 {
		cl.Eng.Spawn("part-sched", func(p *sim.Proc) {
			g.WaitStarted(p)
			cycles := opts.Flap
			if cycles < 1 {
				cycles = 1
			}
			for c := 0; c < cycles; c++ {
				p.Sleep(opts.PartitionAt)
				cl.Fault.Sever(opts.Partition, opts.OneWay)
				// Heal only after the outage was noticed, so every cycle
				// exercises detection, promotion, and the epoch fence.
				a.WaitDown(p, opts.Partition[0])
				p.Sleep(opts.HealAfter)
				cl.Fault.Heal()
				for _, n := range opts.Partition {
					a.Reconnect(n)
				}
			}
		})
	}
	if _, err := cl.RunChecked(30 * time.Second); err != nil {
		return err
	}
	if !g.Done() {
		return fmt.Errorf("app: generator did not drain")
	}
	rec := a.Rec
	if rec.ValueErrs != 0 || rec.ProtoErrs != 0 {
		return fmt.Errorf("app: corruption: %d value errors, %d protocol errors",
			rec.ValueErrs, rec.ProtoErrs)
	}
	if opts.Crash >= 0 {
		if rec.Failovers == 0 {
			return fmt.Errorf("app: crash of node %d was never detected", opts.Crash)
		}
		if a.Recovering() {
			return fmt.Errorf("app: recovery never completed")
		}
		if rec.ResyncKeys == 0 {
			return fmt.Errorf("app: rejoined node was never resynced")
		}
	}
	if len(opts.Partition) > 0 {
		if rec.Failovers == 0 {
			return fmt.Errorf("app: partition of %v was never detected", opts.Partition)
		}
		if a.Recovering() {
			return fmt.Errorf("app: recovery never completed")
		}
		for _, n := range opts.Partition {
			if a.Down(n) {
				return fmt.Errorf("app: node %d still marked down after the heal", n)
			}
		}
		if rec.StaleReads != 0 {
			return fmt.Errorf("app: %d stale reads served across the partition", rec.StaleReads)
		}
		if opts.TrackAcks {
			if len(g.AckedPuts) == 0 {
				return fmt.Errorf("app: no writes were acknowledged under the partition")
			}
			for key, seq := range g.AckedPuts {
				val, ok := a.Lookup(key)
				if !ok || len(val) < 16 || binary.LittleEndian.Uint32(val[12:]) < seq {
					return fmt.Errorf("app: acknowledged write to key %d lost across the partition", key)
				}
			}
		}
	}
	if stats != nil {
		rep := g.Report()
		stats.Nodes = len(cl.Nodes)
		stats.Shards = len(a.Map.Shards)
		stats.Sessions = rep.Sessions
		stats.Requests = rep.Requests
		stats.Admitted = rec.Admitted
		stats.Completed = rep.Completed
		stats.Shed = rec.Shed
		stats.Retries = rec.Retries
		stats.Failovers = rec.Failovers
		stats.ResyncKeys = rec.ResyncKeys
		stats.EpochRejected = rec.EpochRejected
		stats.Vetoed = rec.ReportsIgnored
		stats.StaleReads = rec.StaleReads
		stats.AckedPuts = int64(len(g.AckedPuts))
		stats.DepthHW = rec.DepthHighWater()
		stats.P50 = rep.P50
		stats.P99 = rep.P99
		stats.P999 = rep.P999
		stats.ThroughputOpsSec = rep.ThroughputOpsSec
		stats.MakespanNS = rep.MakespanNS
		stats.Recovery = rep.Recovery
	}
	return nil
}

// AcceptanceAppOpts is the `shrimpbench -fig app` configuration: 8 nodes, a
// million sessions through four gateway nodes, and a mid-load crash of
// node 5 — a non-gateway primary.
func AcceptanceAppOpts() AppServeOpts {
	return AppServeOpts{
		MeshX: 4, MeshY: 2,
		Sessions: 1 << 20,
		Gateways: []int{0, 1, 2, 3},
		// 8e5 aggregate is heavy but serviceable: the 8-node cluster
		// saturates near 1.2M ops/s at this batch size (the gateway hosts'
		// NICs, which carry serving and gateway traffic both, give out
		// first), so queueing stays bounded and the only failover is the
		// injected crash. The duration puts offered load past the session
		// count, so every one of the million sessions issues.
		Rate:      8e5,
		Duration:  1400 * time.Millisecond,
		WriteFrac: 0.1,
		BatchOps:  256,
		Crash:     5, CrashAt: 300 * time.Millisecond, RestartAfter: 20 * time.Millisecond,
		// Post-crash, the promoted primaries absorb the victim's traffic;
		// the detection deadline gives that excursion headroom so only a
		// real death trips it.
		appCfg: app.Config{CallDeadline: 10 * time.Millisecond},
	}
}

// RunAppServe runs the scenario twice under the replay digest and reports
// the first run's stats plus digest stability.
func RunAppServe(opts AppServeOpts) (AppServeResult, error) {
	var st [2]AppServeStats
	v := replay(nil, func(r *run, i int) error { return appServe(r, opts, &st[i]) })
	res := AppServeResult{AppServeStats: st[0], Digest: v.digest, Stable: v.stable}
	if v.detail != "" {
		return res, errors.New(v.detail)
	}
	return res, nil
}

// AppServeTable renders the acceptance run for the CLI.
func AppServeTable(r AppServeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "APP — sharded KV serving, %d nodes / %d shards\n", r.Nodes, r.Shards)
	fmt.Fprintf(&b, "  %-28s %12d\n", "client sessions", r.Sessions)
	fmt.Fprintf(&b, "  %-28s %12d\n", "requests issued", r.Requests)
	fmt.Fprintf(&b, "  %-28s %12d\n", "ops completed", r.Completed)
	fmt.Fprintf(&b, "  %-28s %12d\n", "ops shed (admission)", r.Shed)
	fmt.Fprintf(&b, "  %-28s %12d\n", "ops retried (failover)", r.Retries)
	fmt.Fprintf(&b, "  %-28s %12d\n", "queue depth high water", r.DepthHW)
	fmt.Fprintf(&b, "  %-28s %10.0f/s\n", "throughput (virtual)", r.ThroughputOpsSec)
	fmt.Fprintf(&b, "  %-28s %12v\n", "makespan (virtual)", time.Duration(r.MakespanNS))
	fmt.Fprintf(&b, "  %-28s %12v\n", "failover recovery", r.Recovery)
	fmt.Fprintf(&b, "  %-10s %10s %10s %10s\n", "latency", "p50", "p99", "p999")
	for c := 0; c < 4; c++ {
		fmt.Fprintf(&b, "  %-10s %10v %10v %10v\n", app.ClassName(c),
			time.Duration(r.P50[c]), time.Duration(r.P99[c]), time.Duration(r.P999[c]))
	}
	stable := "digest %s, replay-stable across two runs\n"
	if !r.Stable {
		stable = "digest %s, NOT REPLAY-STABLE\n"
	}
	fmt.Fprintf(&b, "  "+stable, sim.DigestString(r.Digest))
	return b.String()
}

// AppRampRow is one offered-load point of the capacity ramp.
type AppRampRow struct {
	RateOpsSec       float64
	Completed, Shed  int64
	ThroughputOpsSec float64
	P50, P99, P999   int64 // served (get.srv) latency, virtual ns
}

// AppRamp sweeps offered load over a fixed 4-node serving cluster: below
// saturation throughput tracks the offered rate and shedding is zero; past
// it, admission control sheds the excess while the served quantiles stay
// bounded. Each point is an independent cluster.
func AppRamp(rates []float64) ([]AppRampRow, error) {
	rows := make([]AppRampRow, 0, len(rates))
	for _, rate := range rates {
		var st AppServeStats
		r := &run{}
		err := appServe(r, AppServeOpts{
			MeshX: 2, MeshY: 2,
			Sessions: 1 << 14,
			Rate:     rate,
			Duration: 5 * time.Millisecond,
			Crash:    -1,
			// A per-op cost high enough that the server, not the
			// transport, is the bottleneck: past the hot shard's capacity
			// the ramp's top rates shed at the admission bound instead of
			// queueing, which is the subsystem's overload story.
			appCfg: app.Config{ServiceTime: 4 * time.Microsecond, QueueBound: 32},
		}, &st)
		r.close()
		if err != nil {
			return nil, fmt.Errorf("ramp at %.0f ops/s: %w", rate, err)
		}
		rows = append(rows, AppRampRow{
			RateOpsSec:       rate,
			Completed:        st.Completed,
			Shed:             st.Shed,
			ThroughputOpsSec: st.ThroughputOpsSec,
			P50:              st.P50[app.ClassGetSrv],
			P99:              st.P99[app.ClassGetSrv],
			P999:             st.P999[app.ClassGetSrv],
		})
	}
	return rows, nil
}

// AppRampTable renders the capacity ramp for the CLI.
func AppRampTable(rows []AppRampRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "APP RAMP — 4 nodes, offered load vs served latency (get.srv)\n")
	fmt.Fprintf(&b, "  %12s %10s %8s %12s %10s %10s %10s\n",
		"offered/s", "completed", "shed", "tput/s", "p50", "p99", "p999")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %12.0f %10d %8d %12.0f %10v %10v %10v\n",
			r.RateOpsSec, r.Completed, r.Shed, r.ThroughputOpsSec,
			time.Duration(r.P50), time.Duration(r.P99), time.Duration(r.P999))
	}
	return b.String()
}

// chaosAppOpts is the soak-matrix cell: small enough to run under every
// fault plan without dominating the matrix's wall-clock.
func chaosAppOpts() AppServeOpts {
	return AppServeOpts{
		MeshX: 2, MeshY: 2,
		Sessions: 512,
		Rate:     2e5,
		Duration: 2 * time.Millisecond,
		Crash:    -1,
	}
}

// appPartitionCell names one partition shape of the soak matrix.
type appPartitionCell struct {
	name    string
	victims []int
	oneWay  bool
	flap    int
}

// appPartitionCells is the partition quadrant of the soak matrix: a
// two-node minority group, a single isolated primary, an asymmetric
// (outbound-only) cut, and a flapping link. Every cell runs tracked load
// through gateway 0 and must come out with zero lost acknowledged writes
// and zero stale reads.
func appPartitionCells() []appPartitionCell {
	return []appPartitionCell{
		{name: "part-minority", victims: []int{1, 3}},
		{name: "part-primary", victims: []int{1}},
		{name: "part-asym", victims: []int{2}, oneWay: true},
		{name: "part-flap", victims: []int{1}, flap: 2},
	}
}

// appPartitionOpts sizes one partition cell: small enough for the matrix,
// long enough that load is in flight across the cut, the failover, the
// heal, and the handback.
func appPartitionOpts(c appPartitionCell) AppServeOpts {
	opts := AppServeOpts{
		MeshX: 2, MeshY: 2,
		Sessions:    768,
		Gateways:    []int{0},
		Rate:        1e5,
		Duration:    20 * time.Millisecond,
		WriteFrac:   0.3,
		Crash:       -1,
		Partition:   c.victims,
		PartitionAt: 4 * time.Millisecond,
		HealAfter:   3 * time.Millisecond,
		OneWay:      c.oneWay,
		Flap:        c.flap,
		TrackAcks:   true,
	}
	if c.flap > 1 {
		opts.Duration = 30 * time.Millisecond
	}
	return opts
}

// AppPartitionRow is one cell of the `shrimpbench -fig partition` table.
type AppPartitionRow struct {
	Cell               string
	Failovers, Retries int64
	EpochRejected      int64
	Vetoed             int64
	AckedPuts          int64
	Recovery           time.Duration
	Digest             uint64
	Stable             bool
}

// RunAppPartition runs every partition cell standalone — outside the chaos
// matrix — twice under the replay digest, and reports the fencing
// counters: how often the epoch fence fired, how many minority-side
// down-reports the quorum gate vetoed, and how many acknowledged writes
// the durability sweep re-verified after the heal. Any lost acked write,
// stale read, or digest divergence is an error.
func RunAppPartition(seed int64) ([]AppPartitionRow, error) {
	rows := make([]AppPartitionRow, 0, 4)
	for _, c := range appPartitionCells() {
		opts := appPartitionOpts(c)
		var st [2]AppServeStats
		v := replay(underPlan(fault.Plan{Name: c.name}, seed), func(r *run, i int) error {
			return appServe(r, opts, &st[i])
		})
		if v.detail != "" {
			return rows, fmt.Errorf("%s: %s", c.name, v.detail)
		}
		rows = append(rows, AppPartitionRow{
			Cell:          c.name,
			Failovers:     st[0].Failovers,
			Retries:       st[0].Retries,
			EpochRejected: st[0].EpochRejected,
			Vetoed:        st[0].Vetoed,
			AckedPuts:     st[0].AckedPuts,
			Recovery:      st[0].Recovery,
			Digest:        v.digest,
			Stable:        v.stable,
		})
	}
	return rows, nil
}

// AppPartitionTable renders the partition cells for the CLI.
func AppPartitionTable(rows []AppPartitionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PARTITION — 4 nodes, tracked load across sever/heal; every cell re-verified %s\n",
		"all acked writes and served zero stale reads")
	fmt.Fprintf(&b, "  %-14s %9s %8s %8s %7s %10s %10s  %-18s\n",
		"cell", "failover", "retries", "fenced", "vetoed", "acked", "recovery", "digest")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %9d %8d %8d %7d %10d %10v  %-18s\n",
			r.Cell, r.Failovers, r.Retries, r.EpochRejected, r.Vetoed,
			r.AckedPuts, r.Recovery, sim.DigestString(r.Digest))
	}
	return b.String()
}

// chaosAppFailover is the serving-stack crash cell: a primary dies under
// live load, is detected by deadline expiry, restarted, rejoined, and
// resynced — the run fails unless recovery completed and no acknowledged
// value was corrupted.
func chaosAppFailover(r *run) error {
	opts := chaosAppOpts()
	opts.Sessions = 1 << 10
	opts.Duration = 18 * time.Millisecond
	opts.Rate = 1e5
	opts.WriteFrac = 0.3
	opts.Gateways = []int{0}
	opts.Crash = 2
	opts.CrashAt = 4 * time.Millisecond
	opts.RestartAfter = 8 * time.Millisecond
	return appServe(r, opts, nil)
}
