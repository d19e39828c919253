// Package app is the serving subsystem: a sharded, primary/replica
// key-value store served over SRPC batch calls, the workload the ROADMAP's
// "heavy traffic from millions of users" north star asks for. Keys place
// onto shards by consistent hashing; each shard has a primary (writes,
// linearizable reads) and a follower that receives writes synchronously
// before the client is acknowledged. Per-shard admission control bounds
// the virtual-time backlog a shard may accumulate and sheds the excess
// with an error, so admitted-request latency stays bounded past
// saturation. Failover is detection-based and wired to the existing
// cluster.CrashNode/RestartNode surface: a client call timing out marks
// the node down, promotes followers, and reroutes; a restarted node is
// adopted as follower for every degraded shard and caught up by a
// snapshot resync streamed from the primaries.
//
// Everything runs inside the deterministic simulation: same
// configuration, same seed → byte-identical event streams, which the
// chaos matrix and determinism tests verify by digest.
package app

import (
	"fmt"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// shardsPerNode sets the shard count: two shards per node.
const shardsPerNode = 2

// replDeadline bounds a replication call; expiry marks the follower down
// and degrades the shard. It must be comfortably below CallDeadline: a
// client call may sit behind one full replication timeout.
const replDeadline = 2 * time.Millisecond

// BindDeadline bounds every SRPC rendezvous bind in the serving subsystem:
// the replication proxies' and the load generator's gateways'. The
// rendezvous crosses the slow shared Ethernet several times, and when every
// sender binds at once (warmup, or a post-failover rebind wave) the whole
// fleet's rendezvous traffic serializes on that 10 Mb/s wire. A slow bind
// means congestion, not death; dead nodes are detected by the much tighter
// call and replication deadlines on the fast path.
const BindDeadline = 2 * time.Second

// Config tunes the serving subsystem.
type Config struct {
	// QueueBound is the per-shard admission limit, in queued ops; a batch
	// op arriving at a shard whose backlog is at the bound is shed
	// (default 512).
	QueueBound int
	// ServiceTime is the modeled per-op service cost charged to a
	// shard's backlog (default 300ns).
	ServiceTime time.Duration
	// CallDeadline bounds a client batch call; expiry is the failover
	// detection signal (default 5ms).
	CallDeadline time.Duration
	// Trace, when non-nil, receives latency histograms, counters, and
	// queue-depth gauges (pass the same collector given to cluster.New).
	Trace *trace.Collector
}

func (cfg *Config) defaults() {
	if cfg.QueueBound == 0 {
		cfg.QueueBound = 512
	}
	if cfg.ServiceTime == 0 {
		cfg.ServiceTime = 300 * time.Nanosecond
	}
	if cfg.CallDeadline == 0 {
		cfg.CallDeadline = 5 * time.Millisecond
	}
}

// FailoverWatcher is notified (in registration order, in engine event
// order) when the subsystem detects a node death or adopts a rejoined
// node. The load generator's gateways implement it to migrate queued ops
// and rebind senders.
type FailoverWatcher interface {
	NodeDown(node int)
	NodeUp(node int)
}

// App is one running serving subsystem over a cluster.
type App struct {
	Cl  *cluster.Cluster
	Cfg Config
	Map *ShardMap
	Rec *Recorder

	nodes []*serverNode
	down  []bool
	// gen[i] counts node i's incarnations; cached bindings to i are
	// stale when their generation lags.
	gen   []int
	ready *sim.Cond
	// upPorts counts a node's live listeners (2 = serving); upProxies its
	// outbound replication proxies past warmup (n-1 = fully ready).
	upPorts   []int
	upProxies []int
	watchers  []FailoverWatcher

	// Failover/recovery bookkeeping: FailAt is the first detection of a
	// primary loss, RecoveredAt the first acknowledged op on an affected
	// shard after it. affected is that outage's shard set.
	FailAt      sim.Time
	RecoveredAt sim.Time
	recovering  bool
	affected    map[int]bool

	// deposed[n] lists the shards whose primary role moved off node n
	// while it was marked down — the set whose unreplicated tail Reconnect
	// hands back to the new primaries when the partition heals.
	deposed map[int][]int
}

// Start builds the shard map and spawns the serving processes (one batch
// server and one replication server per node). Call WaitReady from client
// processes before binding.
func Start(cl *cluster.Cluster, cfg Config) (*App, error) {
	n := len(cl.Nodes)
	if n < 2 {
		return nil, fmt.Errorf("app: need at least 2 nodes, have %d", n)
	}
	cfg.defaults()
	shards := shardsPerNode * n
	if shards > 1<<16 {
		return nil, fmt.Errorf("app: shard count %d exceeds wire limit", shards)
	}
	a := &App{
		Cl:        cl,
		Cfg:       cfg,
		Map:       NewShardMap(shards, n),
		Rec:       NewRecorder(shards, cfg.Trace),
		nodes:     make([]*serverNode, n),
		down:      make([]bool, n),
		gen:       make([]int, n),
		upPorts:   make([]int, n),
		upProxies: make([]int, n),
		ready:     sim.NewCond(cl.Eng),
		affected:  map[int]bool{},
		deposed:   map[int][]int{},
	}
	for i := 0; i < n; i++ {
		a.startNode(i)
	}
	return a, nil
}

// WaitReady parks the calling proc until every live node is serving both
// ports and has all its replication proxies through warmup (prebound to
// their initial followers), so the first traffic never queues behind the
// slow conventional-network rendezvous.
func (a *App) WaitReady(p *sim.Proc) {
	for {
		ok := true
		for i := range a.upPorts {
			if !a.down[i] && (a.upPorts[i] < 2 || a.upProxies[i] < len(a.nodes)-1) {
				ok = false
			}
		}
		if ok {
			return
		}
		a.ready.Wait(p)
	}
}

// Down reports whether a node is currently marked dead.
func (a *App) Down(node int) bool { return a.down[node] }

// WaitDown parks the calling proc until the node is marked down — the
// instant the failure detector notices a crash. Restart schedules wait on
// it so a repair never races the detection deadline.
func (a *App) WaitDown(p *sim.Proc, node int) {
	for !a.down[node] {
		a.ready.Wait(p)
	}
}

// Gen returns a node's incarnation count; cached bindings are stale when
// their recorded generation lags.
func (a *App) Gen(node int) int { return a.gen[node] }

// Watch registers a failover watcher.
func (a *App) Watch(w FailoverWatcher) { a.watchers = append(a.watchers, w) }

// ReportDown is the failure-detection entry point for callers whose RPC
// to the node timed out. The report passes a quorum gate first: it is
// honored only if the accused node is unreachable from a majority of live
// nodes, so a primary isolated on the minority side of a partition cannot
// depose its (majority-side) follower and self-certify writes. A timeout
// seen from the minority side (the reporter is the one cut off) is
// recorded and ignored — the minority-side caller keeps failing, cannot
// depose anyone, and its writes go unacknowledged until the heal.
func (a *App) ReportDown(reporter, node int) {
	if a.down[node] {
		return
	}
	if a.reachedByMajority(node) {
		a.Rec.Count(&a.Rec.ReportsIgnored, "report.ignored", 1)
		return
	}
	a.NodeDown(node)
}

// reachedByMajority reports whether a strict majority of live nodes
// (the accused included — it can reach itself) can reach the node.
// cluster.Reachable models the directory service's own connectivity
// probes; it reads the injector's ground truth, which is what those
// probes would measure.
func (a *App) reachedByMajority(node int) bool {
	live, reach := 0, 0
	for i := range a.down {
		if a.down[i] {
			continue
		}
		live++
		if i == node || a.Cl.Reachable(i, node) {
			reach++
		}
	}
	return 2*reach > live
}

// NodeDown marks a node dead unconditionally: the quorum already agreed
// (ReportDown), or a harness is scripting the failure. Idempotent. It
// promotes followers of the dead node's shards (minting their new
// epochs), degrades shards it followed, starts the recovery clock if any
// primary moved, records the deposed shard set for heal-time
// reconciliation, and notifies watchers so gateways reroute queued work.
func (a *App) NodeDown(node int) {
	if a.down[node] {
		return
	}
	a.down[node] = true
	promoted := a.Map.Fail(node)
	var moved []int
	for _, s := range promoted {
		if a.Map.Shards[s].Primary != node {
			moved = append(moved, s)
		}
	}
	a.deposed[node] = moved
	if len(promoted) > 0 {
		a.Rec.Count(&a.Rec.Failovers, "failover", 1)
		if !a.recovering {
			a.recovering = true
			a.FailAt = a.Cl.Eng.Now()
			for _, s := range promoted {
				a.affected[s] = true
			}
		}
	}
	for _, w := range a.watchers {
		w.NodeDown(node)
	}
	a.ready.Broadcast()
}

// NoteServed closes the recovery clock: gateways call it on the first
// acknowledged op landing on a shard the outage affected.
func (a *App) NoteServed(shard int) {
	if !a.recovering || !a.affected[shard] {
		return
	}
	a.recovering = false
	a.RecoveredAt = a.Cl.Eng.Now()
}

// Recovering reports whether a detected outage has not yet seen a
// post-failover acknowledged op.
func (a *App) Recovering() bool { return a.recovering }

// RecoveryTime returns the measured detection-to-first-acknowledged-op
// interval of the last completed failover (zero if none completed).
func (a *App) RecoveryTime() time.Duration {
	if a.recovering || a.RecoveredAt == 0 {
		return 0
	}
	return a.RecoveredAt.Sub(a.FailAt)
}

// Rejoin brings a restarted node back into the subsystem: call it after
// cluster.RestartNode(node). Fresh serving processes spawn on the new
// machine, the node is adopted as follower for every degraded shard, and
// the owing primaries are poked to stream snapshots once the new
// listeners are up. Watchers learn of the rebirth so senders rebind.
func (a *App) Rejoin(node int) {
	if !a.down[node] {
		return
	}
	a.down[node] = false
	a.gen[node]++
	a.upPorts[node] = 0
	a.upProxies[node] = 0
	// A restart lost the machine's memory: nothing survives to hand back.
	delete(a.deposed, node)
	if old := a.nodes[node]; old != nil {
		// The crash killed the serving processes but their Ethernet
		// addresses are still bound; release them for the new incarnation.
		for _, ln := range old.lns {
			ln.Port().Close()
		}
	}
	a.startNode(node)
	owing := a.Map.AdoptReplica(node)
	for _, p := range owing {
		if !a.down[p] && a.nodes[p] != nil {
			a.nodes[p].poke.Broadcast()
		}
	}
	for _, w := range a.watchers {
		w.NodeUp(node)
	}
}

// Reconnect brings a partitioned-but-alive node back into the subsystem:
// call it after the injector heals a partition that got the node marked
// down. Unlike Rejoin, the node's serving processes never died and its
// stores survived, so no new incarnation spawns. Any shard the node led
// when it was deposed hands its surviving copy back to the new primary as
// a merge-mode replication stream — highest version wins, so the deposed
// side's unreplicated (never-acknowledged) tail lands while everything
// the new regime wrote stays put — and the node is then re-adopted as a
// follower for degraded shards, caught up by the usual snapshot resync.
func (a *App) Reconnect(node int) {
	if !a.down[node] || a.nodes[node] == nil {
		return
	}
	a.down[node] = false
	sn := a.nodes[node]
	for _, s := range a.deposed[node] {
		in := a.Map.Shards[s]
		if in.Primary < 0 || in.Primary == node || a.down[in.Primary] {
			continue
		}
		st := sn.shards[s].store
		var recs []replRec
		for _, k := range st.SortedKeys() {
			v, ver, _ := st.GetVer(k)
			recs = append(recs, replRec{Shard: s, Key: k, Epoch: in.Epoch, Ver: ver, Val: v})
		}
		if len(recs) > 0 {
			sn.out[in.Primary].push(&outEntry{shard: -1, recs: recs, merge: true}, false)
		}
	}
	delete(a.deposed, node)
	owing := a.Map.AdoptReplica(node)
	for _, p := range owing {
		if !a.down[p] && a.nodes[p] != nil {
			a.nodes[p].poke.Broadcast()
		}
	}
	for _, w := range a.watchers {
		w.NodeUp(node)
	}
	a.ready.Broadcast()
}

// portUp marks one of a node's listeners live; when both are up the node
// serves, resyncs into it may start, and WaitReady waiters wake.
func (a *App) portUp(node int) {
	a.upPorts[node]++
	a.ready.Broadcast()
	if a.upPorts[node] >= 2 {
		// A rejoined node may owe resyncs that were blocked on its
		// listeners; poke every primary.
		for i, sn := range a.nodes {
			if sn != nil && !a.down[i] {
				sn.poke.Broadcast()
			}
		}
	}
}

// proxyUp marks one of a node's outbound replication proxies through
// warmup; when all are, WaitReady waiters may wake.
func (a *App) proxyUp(node int) {
	a.upProxies[node]++
	a.ready.Broadcast()
}

// serving reports whether a node is live with both listeners up.
func (a *App) serving(node int) bool {
	return !a.down[node] && a.upPorts[node] >= 2
}

// Lookup reads a key's current value directly from its shard's primary
// store — host-side inspection for tests (no virtual time, no RPC).
func (a *App) Lookup(key uint64) ([]byte, bool) {
	s := a.Map.ShardOf(key)
	in := a.Map.Shards[s]
	if in.Primary < 0 || a.down[in.Primary] || a.nodes[in.Primary] == nil {
		return nil, false
	}
	return a.nodes[in.Primary].shards[s].store.Get(key)
}
