package bench

import (
	"shrimp/internal/cluster"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// run is one scenario's context, and the only way a driver gets a cluster.
// It carries what every cluster built inside the scenario shares — the
// trace collector, a config rewriter (fault plans, tighter timeouts), a
// cluster provider (snapshot clones, warm pools), and the replay digest —
// and it owns those clusters: the harness inspects them when the scenario
// ends, then close shuts every one of them down.
type run struct {
	trace *trace.Collector
	mod   func(*cluster.Config)
	// provide, when non-nil, sources a cluster for the resolved config
	// instead of a fresh boot; it may return nil to decline.
	provide func(cluster.Config) *cluster.Cluster
	digest  *sim.DigestTracer
	built   []*cluster.Cluster
}

// cluster resolves a driver's cluster request: the collector and the
// rewriter apply first, the digest rides the config, the provider gets a
// chance to serve the world, and a fresh boot is the fallback.
func (r *run) cluster(cfg cluster.Config) *cluster.Cluster {
	cfg.Trace = r.trace
	if r.mod != nil {
		r.mod(&cfg)
	}
	if r.digest != nil {
		cfg.Auto = r.digest
	}
	var c *cluster.Cluster
	if r.provide != nil {
		c = r.provide(cfg)
	}
	if c == nil {
		c = cluster.New(cfg)
	}
	r.built = append(r.built, c)
	return c
}

// injected sums the faults delivered across every cluster the run built.
func (r *run) injected() int64 {
	var n int64
	for _, c := range r.built {
		if c.Fault != nil {
			n += c.Fault.Injected()
		}
	}
	return n
}

// retransmits sums the reliability sublayer's retransmissions across every
// cluster the run built.
func (r *run) retransmits() int64 {
	var n int64
	for _, c := range r.built {
		n += c.Mesh.RelStats().Retransmits
	}
	return n
}

// stalled lists the procs left parked in every cluster the run built, in
// build then spawn order. Call it before close: a shut-down proc is dead.
func (r *run) stalled() []string {
	var out []string
	for _, c := range r.built {
		out = append(out, c.Eng.Stalled()...)
	}
	return out
}

// close shuts down every cluster the run built.
func (r *run) close() {
	for _, c := range r.built {
		c.Shutdown()
	}
	r.built = nil
}

// digestRun runs fn in a fresh context whose clusters all fold into one
// replay digest under the config rewriter mod, shuts the context down, and
// returns the digest with fn's error.
func digestRun(mod func(*cluster.Config), fn func(r *run) error) (uint64, error) {
	r := &run{mod: mod, digest: sim.NewDigestTracer()}
	defer r.close()
	err := fn(r)
	return r.digest.Sum(), err
}
