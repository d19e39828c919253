// World capture and restore. A world image is a boot recipe (the resolved
// cluster.Config) plus everything the recipe cannot regenerate: per-node
// data state and the engine's clock and pending-event frontier. Restore
// re-runs the recipe — cluster construction is deterministic, so the
// rebuilt world reaches the identical structural state, goroutines and
// all — then verifies it really did (event stamps, process roster) before
// installing the captured data state on top. The verification is the
// recipe-drift tripwire: if cluster.New ever stops being deterministic,
// restore fails loudly instead of producing a subtly divergent world.
package snap

import (
	"fmt"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/fault"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// World is a captured, quiesced cluster image.
type World struct {
	// Cfg is the boot recipe, with runtime-only pointers (Trace, Auto,
	// FaultPlan) stripped; RestoreOptions re-supplies them.
	Cfg cluster.Config
	// HadFaultPlan records that the recipe included a fault plan. Plans
	// are not serialized (they are harness-side literals), so restoring
	// such a world requires the caller to re-supply the plan.
	HadFaultPlan bool

	Now    sim.Time
	Seq    uint64
	Stamps []sim.EventStamp
	Procs  []sim.ProcSummary

	Nodes  []NodeImage
	Chunks *ChunkStore
}

// Capture settles the cluster at the current virtual instant and dumps it.
// It refuses worlds that cannot replay exactly: in-flight NIC transfers,
// pending signals, dead nodes, or non-service processes still parked.
func Capture(c *cluster.Cluster) (*World, error) {
	c.Settle()
	if ok, why := c.Eng.EligibleForSnapshot(); !ok {
		return nil, fmt.Errorf("snap: world not capturable: %v", why)
	}
	plan := c.Config().FaultPlan
	w := &World{
		Cfg:          c.Config(),
		HadFaultPlan: plan != nil,
		Stamps:       c.Eng.EventStamps(),
		Procs:        c.Eng.ProcSummaries(),
		Chunks:       NewChunkStore(),
	}
	w.Now, w.Seq = c.Eng.Clock()
	w.Cfg.Trace = nil
	w.Cfg.Auto = nil
	w.Cfg.FaultPlan = nil
	for _, n := range c.Nodes {
		img, err := captureNode(n, w.Chunks)
		if err != nil {
			return nil, err
		}
		w.Nodes = append(w.Nodes, img)
	}
	return w, nil
}

// RestoreOptions re-supplies the runtime-only pieces Capture stripped.
type RestoreOptions struct {
	// Auto attaches a per-engine tracer at boot. Digest-equivalence
	// harnesses usually leave this nil and attach after Restore instead,
	// so both sides of a fresh-vs-clone comparison digest the same span.
	Auto sim.Tracer
	// Trace re-binds a collector.
	Trace *trace.Collector
	// FaultPlan re-supplies the plan for a HadFaultPlan world. Must be
	// the plan the world was captured under; the event-stamp parity check
	// catches a different one.
	FaultPlan *fault.Plan
}

// Restore builds a live clone of the world with default options.
func (w *World) Restore() (*cluster.Cluster, error) {
	return w.RestoreWith(RestoreOptions{})
}

// RestoreWith builds a live clone: re-run the recipe, settle, verify the
// rebuilt structure matches the image, install captured state, advance the
// clock. Memory installs copy-on-write — clones share page storage with
// the image (and so with each other) until first write.
func (w *World) RestoreWith(o RestoreOptions) (*cluster.Cluster, error) {
	cfg := w.Cfg
	cfg.Auto = o.Auto
	cfg.Trace = o.Trace
	cfg.FaultPlan = o.FaultPlan
	if w.HadFaultPlan && cfg.FaultPlan == nil {
		return nil, fmt.Errorf("snap: world was captured under a fault plan; RestoreOptions must re-supply it")
	}
	if !w.HadFaultPlan && cfg.FaultPlan != nil {
		return nil, fmt.Errorf("snap: world was captured without a fault plan; injecting one at restore would diverge from the image")
	}
	c := cluster.New(cfg)
	c.Settle()
	if ok, why := c.Eng.EligibleForSnapshot(); !ok {
		c.Shutdown()
		return nil, fmt.Errorf("snap: rebuilt world did not settle: %v", why)
	}
	if err := w.verifyParity(c); err != nil {
		c.Shutdown()
		return nil, err
	}
	for i, n := range c.Nodes {
		if err := restoreNode(n, w.Nodes[i], w.Chunks); err != nil {
			c.Shutdown()
			return nil, err
		}
	}
	if err := c.Eng.RestoreClock(w.Now, w.Seq); err != nil {
		c.Shutdown()
		return nil, fmt.Errorf("snap: %w", err)
	}
	return c, nil
}

// verifyParity checks that the rebuilt world is structurally identical to
// the one the image was captured from: same node count, same engine
// process roster, same pending-event stamps, and a clock that has not
// outrun the image.
func (w *World) verifyParity(c *cluster.Cluster) error {
	if len(c.Nodes) != len(w.Nodes) {
		return fmt.Errorf("snap: rebuilt world has %d nodes, image has %d", len(c.Nodes), len(w.Nodes))
	}
	procs := c.Eng.ProcSummaries()
	if len(procs) != len(w.Procs) {
		return fmt.Errorf("snap: process roster drift: rebuilt %d procs, image %d", len(procs), len(w.Procs))
	}
	for i := range procs {
		if procs[i] != w.Procs[i] {
			return fmt.Errorf("snap: process roster drift at %d: rebuilt %+v, image %+v", i, procs[i], w.Procs[i])
		}
	}
	stamps := c.Eng.EventStamps()
	if len(stamps) != len(w.Stamps) {
		return fmt.Errorf("snap: pending-event drift: rebuilt %d events, image %d", len(stamps), len(w.Stamps))
	}
	for i := range stamps {
		if stamps[i] != w.Stamps[i] {
			return fmt.Errorf("snap: pending-event drift at %d: rebuilt %+v, image %+v", i, stamps[i], w.Stamps[i])
		}
	}
	now, seq := c.Eng.Clock()
	if now > w.Now || seq > w.Seq {
		return fmt.Errorf("snap: rebuilt clock (%v, seq %d) outran the image (%v, seq %d)", now, seq, w.Now, w.Seq)
	}
	return nil
}

// Encode serializes the world. Identical worlds produce identical bytes.
func (w *World) Encode() []byte {
	wr := NewWriter()
	wr.U64(uint64(w.Cfg.MeshX))
	wr.U64(uint64(w.Cfg.MeshY))
	wr.U64(uint64(len(w.Cfg.MeshDims)))
	for _, d := range w.Cfg.MeshDims {
		wr.U64(uint64(d))
	}
	wr.Bool(w.Cfg.Combining)
	wr.U64(uint64(w.Cfg.MemBytes))
	wr.U64(uint64(w.Cfg.OPTEntries))
	wr.I64(w.Cfg.FaultSeed)
	wr.Bool(w.Cfg.Reliable)
	wr.I64(int64(w.Cfg.Timeouts.DaemonRPC))
	wr.I64(int64(w.Cfg.Timeouts.BindFloor))
	wr.Bool(w.HadFaultPlan)

	wr.I64(int64(w.Now))
	wr.U64(w.Seq)
	wr.U64(uint64(len(w.Stamps)))
	for _, s := range w.Stamps {
		wr.I64(int64(s.At))
		wr.U64(s.Seq)
	}
	wr.U64(uint64(len(w.Procs)))
	for _, p := range w.Procs {
		wr.Str(p.Name)
		wr.Bool(p.Done)
		wr.Bool(p.Dead)
		wr.Bool(p.Service)
	}

	w.Chunks.encode(wr)
	wr.U64(uint64(len(w.Nodes)))
	for i := range w.Nodes {
		w.Nodes[i].encode(wr)
	}
	return wr.Finish()
}

// Decode parses an image produced by Encode. The decoded world's chunk
// slices alias b; the caller must not mutate it.
func Decode(b []byte) (*World, error) {
	r, err := NewReader(b)
	if err != nil {
		return nil, err
	}
	w := &World{}
	w.Cfg.MeshX = int(r.U64())
	w.Cfg.MeshY = int(r.U64())
	for n := r.U64(); n > 0 && r.Err() == nil; n-- {
		w.Cfg.MeshDims = append(w.Cfg.MeshDims, int(r.U64()))
	}
	w.Cfg.Combining = r.Bool()
	w.Cfg.MemBytes = int(r.U64())
	w.Cfg.OPTEntries = int(r.U64())
	w.Cfg.FaultSeed = r.I64()
	w.Cfg.Reliable = r.Bool()
	w.Cfg.Timeouts.DaemonRPC = time.Duration(r.I64())
	w.Cfg.Timeouts.BindFloor = time.Duration(r.I64())
	w.HadFaultPlan = r.Bool()

	w.Now = sim.Time(r.I64())
	w.Seq = r.U64()
	for n := r.U64(); n > 0 && r.Err() == nil; n-- {
		at := sim.Time(r.I64())
		w.Stamps = append(w.Stamps, sim.EventStamp{At: at, Seq: r.U64()})
	}
	for n := r.U64(); n > 0 && r.Err() == nil; n-- {
		var p sim.ProcSummary
		p.Name = r.Str()
		p.Done = r.Bool()
		p.Dead = r.Bool()
		p.Service = r.Bool()
		w.Procs = append(w.Procs, p)
	}

	w.Chunks = decodeChunkStore(r)
	for n := r.U64(); n > 0 && r.Err() == nil; n-- {
		w.Nodes = append(w.Nodes, decodeNode(r))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !r.Done() {
		return nil, fmt.Errorf("snap: trailing bytes after world image")
	}
	return w, nil
}
