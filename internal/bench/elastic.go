// Elasticity scenarios: the snapshot layer under operational churn. The
// autoscale scenario drives a warm-world pool through a deterministic
// demand trace — a controller sizing warm capacity off the previous
// step's demand, misses booting inline, shrink releasing stock — while
// every served world runs a real cross-node transfer and must replay the
// identical digest regardless of pool provenance. The rolling scenario
// takes the serving stack through restart rounds, one victim node per
// round, each round's cluster a snapshot clone from a pool instead of a
// fresh boot: crash, restart, rejoin, resync, full load the whole time.
// Both scenarios are run twice by their harnesses; same trace, same
// digest, or the cell fails.
package bench

import (
	"fmt"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/fault"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/snap"
	"shrimp/internal/vmmc"
)

// elasticDemand is the fixed demand trace: ramp, spike, decay, echo. Step
// i's demand is served from capacity sized for step i-1, so the trace
// shape dictates the hit/miss split exactly.
var elasticDemand = []int{1, 2, 4, 6, 3, 1, 5, 2}

// ElasticPoolResult is one run of the autoscale scenario.
type ElasticPoolResult struct {
	Steps, Served                  int
	Hits, Misses, Built, Discarded int
	Digest                         uint64
	Stable                         bool
	Detail                         string
}

// OK reports whether the cell passed.
func (r ElasticPoolResult) OK() bool { return r.Detail == "" && r.Stable }

// elasticWorkload runs one pooled world's unit of work: a one-page
// export/import rendezvous and a patterned remote write from node 0 to
// node 1, verified byte for byte. Real data path — NIC page tables, the
// daemon rendezvous, deliberate updates — so a defective clone cannot
// pass by idling.
func elasticWorkload(c *cluster.Cluster) error {
	var verr error
	fail := func(format string, args ...any) {
		if verr == nil {
			verr = fmt.Errorf(format, args...)
		}
	}
	const pattern = 0x5EED0001
	exported := false
	cond := sim.NewCond(c.Eng)
	c.Spawn(1, "rx", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(1).Daemon)
		va := p.MapPages(1, 0)
		if _, err := ep.Export(va, 1, vmmc.ExportOpts{Name: "buf"}); err != nil {
			fail("export: %v", err)
			return
		}
		exported = true
		cond.Broadcast()
		if got := p.WaitWord(va, func(v uint32) bool { return v != 0 }); got != pattern {
			fail("receiver saw %#x, want %#x", got, pattern)
		}
	})
	c.Spawn(0, "tx", func(p *kernel.Process) {
		for !exported {
			cond.Wait(p.P)
		}
		ep := vmmc.Attach(p, c.Node(0).Daemon)
		imp, err := ep.Import(1, "buf")
		if err != nil {
			fail("import: %v", err)
			return
		}
		src := p.Alloc(hw.WordSize, hw.WordSize)
		p.WriteWord(src, pattern)
		if err := ep.Send(imp, 0, src, hw.WordSize); err != nil {
			fail("send: %v", err)
		}
	})
	if _, err := c.RunChecked(time.Second); err != nil {
		fail("run: %v", err)
	}
	return verr
}

// runElasticPoolOnce drives one pass of the autoscale trace and returns
// the pool census. Each served world is digested apart, and its sum is
// folded into r's digest.
func runElasticPoolOnce(r *run) (ElasticPoolResult, error) {
	res := ElasticPoolResult{Steps: len(elasticDemand)}
	boot := cluster.New(cluster.Config{})
	w, err := snap.Capture(boot)
	boot.Shutdown()
	if err != nil {
		return res, err
	}
	pool := snap.NewWorldPool(w, snap.RestoreOptions{})
	defer pool.Close()

	var want uint64
	for _, demand := range elasticDemand {
		for j := 0; j < demand; j++ {
			c, err := pool.Get()
			if err != nil {
				return res, err
			}
			dt := sim.NewDigestTracer()
			c.Eng.AddTracer(dt)
			err = elasticWorkload(c)
			pool.Discard(c)
			if err != nil {
				return res, err
			}
			if want == 0 {
				want = dt.Sum()
			} else if dt.Sum() != want {
				return res, fmt.Errorf("pooled world diverged: %s vs %s",
					sim.DigestString(dt.Sum()), sim.DigestString(want))
			}
			res.Served++
			r.digest.Fold(dt.Sum())
		}
		// The controller sizes warm capacity for the demand it just saw.
		pool.SetTarget(demand)
		if err := pool.Prefill(demand); err != nil {
			return res, err
		}
	}
	st := pool.Stats()
	res.Hits, res.Misses = st.Hits, st.Misses
	res.Built, res.Discarded = st.Built, st.Discarded
	return res, nil
}

// RunElasticPool runs the autoscale scenario twice and reports stability:
// the same folded digest and the same hit/miss split.
func RunElasticPool() ElasticPoolResult {
	var res [2]ElasticPoolResult
	v := replay(nil, func(r *run, i int) (err error) {
		res[i], err = runElasticPoolOnce(r)
		return err
	})
	out := res[0]
	out.Digest, out.Detail = v.digest, v.detail
	out.Stable = v.stable && res[0].Hits == res[1].Hits && res[0].Misses == res[1].Misses
	if out.Detail == "" && !out.Stable {
		out.Detail = fmt.Sprintf("unstable: hits %d vs %d, misses %d vs %d",
			res[0].Hits, res[1].Hits, res[0].Misses, res[1].Misses)
	}
	return out
}

// ElasticRollingResult is one run of the rolling-restart scenario.
type ElasticRollingResult struct {
	Rounds               int
	Failovers, ResyncKey int64
	PoolHits, PoolMisses int
	Digest               uint64
	Stable               bool
	Detail               string
}

// OK reports whether the cell passed.
func (r ElasticRollingResult) OK() bool { return r.Detail == "" && r.Stable }

// runElasticRollingOnce restarts each non-gateway node in turn, every
// round served from a snapshot clone: the round's serving cluster comes
// out of a world pool (one boot+capture for the whole run), the victim is
// crashed mid-load, restarted, and must rejoin and resync before the
// round ends. Every round runs in r, whose digest folds each round's full
// event stream; r shuts the round's cluster down before the next.
func runElasticRollingOnce(r *run) (ElasticRollingResult, error) {
	victims := []int{1, 2, 3} // node 0 is the gateway
	res := ElasticRollingResult{Rounds: len(victims)}

	var pool *snap.Pool
	defer func() {
		if pool != nil {
			pool.Close()
		}
	}()
	r.provide = func(cfg cluster.Config) *cluster.Cluster {
		if pool == nil {
			bootCfg := cfg
			bootCfg.Auto = nil
			boot := cluster.New(bootCfg)
			w, err := snap.Capture(boot)
			boot.Shutdown()
			if err != nil {
				return nil // fall back to fresh boots; digests stay valid
			}
			pool = snap.NewWorldPool(w, snap.RestoreOptions{FaultPlan: cfg.FaultPlan})
			pool.SetTarget(1)
		}
		c, err := pool.Get()
		if err != nil {
			return nil
		}
		if cfg.Auto != nil {
			c.Eng.AddTracer(cfg.Auto)
		}
		// Keep one world warm for the next round.
		if err := pool.Prefill(1); err != nil {
			return c
		}
		return c
	}

	for _, victim := range victims {
		opts := chaosAppOpts()
		opts.Sessions = 1 << 9
		opts.Duration = 16 * time.Millisecond
		opts.Rate = 1e5
		opts.WriteFrac = 0.3
		opts.Gateways = []int{0}
		opts.Crash = victim
		opts.CrashAt = 3 * time.Millisecond
		opts.RestartAfter = 6 * time.Millisecond
		var stats AppServeStats
		err := appServe(r, opts, &stats)
		r.close()
		if err != nil {
			return res, fmt.Errorf("round victim=%d: %w", victim, err)
		}
		if stats.Failovers == 0 {
			return res, fmt.Errorf("round victim=%d: no failover detected", victim)
		}
		res.Failovers += stats.Failovers
		res.ResyncKey += stats.ResyncKeys
	}
	if pool != nil {
		st := pool.Stats()
		res.PoolHits, res.PoolMisses = st.Hits, st.Misses
	}
	return res, nil
}

// RunElasticRolling runs the rolling-restart scenario twice and reports
// stability.
func RunElasticRolling() ElasticRollingResult {
	var res [2]ElasticRollingResult
	v := replay(underPlan(fault.Plan{Name: "rolling-restart"}, 1), func(r *run, i int) (err error) {
		res[i], err = runElasticRollingOnce(r)
		return err
	})
	out := res[0]
	out.Digest, out.Stable, out.Detail = v.digest, v.stable, v.detail
	return out
}

// ElasticTable renders both elasticity cells for the CLI.
func ElasticTable(p ElasticPoolResult, r ElasticRollingResult) string {
	status := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "FAIL"
	}
	s := fmt.Sprintf("ELASTICITY — warm pool under demand trace, rolling restarts from clones\n")
	s += fmt.Sprintf("%-16s %6s %6s %6s %6s %6s  %-18s %s\n",
		"scenario", "served", "hits", "misses", "built", "ok", "digest", "detail")
	s += fmt.Sprintf("%-16s %6d %6d %6d %6d %6s  %-18s %s\n",
		"autoscale", p.Served, p.Hits, p.Misses, p.Built, status(p.OK()),
		sim.DigestString(p.Digest), p.Detail)
	s += fmt.Sprintf("%-16s %6d %6d %6d %6d %6s  %-18s %s\n",
		"rolling-restart", r.Rounds, r.PoolHits, r.PoolMisses, r.PoolHits+r.PoolMisses,
		status(r.OK()), sim.DigestString(r.Digest), r.Detail)
	return s
}
