package bench

import (
	"fmt"

	"shrimp/internal/cluster"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// run is one scenario's context, and the only way a driver gets a cluster.
// It carries what every cluster built inside the scenario shares — the
// trace collector, a config rewriter (fault plans, tighter timeouts), and
// the replay digest — and it owns those clusters: the harness inspects
// them when the scenario ends, then close shuts every one of them down.
type run struct {
	trace  *trace.Collector
	mod    func(*cluster.Config)
	digest *sim.DigestTracer
	built  []*cluster.Cluster
}

// cluster resolves a driver's cluster request: the collector and the
// rewriter apply first, then the digest rides the config.
func (r *run) cluster(cfg cluster.Config) *cluster.Cluster {
	cfg.Trace = r.trace
	if r.mod != nil {
		r.mod(&cfg)
	}
	if r.digest != nil {
		cfg.Auto = r.digest
	}
	c := cluster.New(cfg)
	r.built = append(r.built, c)
	return c
}

// injected sums the faults delivered across every cluster the run built:
// the link faults the injector drew, and all faults, which adds the NICs'
// forced protection faults and outgoing stalls and the node crashes. A
// restarted node's counts start again on its fresh NIC.
func (r *run) injected() (link, all int64) {
	var other int64
	for _, c := range r.built {
		if c.Fault != nil {
			link += c.Fault.Injected()
		}
		other += c.Crashes
		for _, n := range c.Nodes {
			other += n.NIC.ForcedFaults + n.NIC.OutStalls
		}
	}
	return link, link + other
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

// replayed is replay's verdict on a body run twice.
type replayed struct {
	digest uint64 // the first run's replay digest
	stable bool   // the second run folded the same digest
	detail string // the first failure, "" when both runs passed and matched
}

// replay is the harness's one determinism verdict: it runs body twice,
// each time in a fresh context under the config rewriter mod whose
// clusters all fold into one replay digest, and compares the digests.
// body learns which run it is in (0, then 1); each context is shut down
// after its run.
func replay(mod func(*cluster.Config), body func(r *run, i int) error) replayed {
	var sums [2]uint64
	var errs [2]error
	for i := range sums {
		sums[i], errs[i] = func() (uint64, error) {
			r := &run{mod: mod, digest: sim.NewDigestTracer()}
			defer r.close()
			err := body(r, i)
			return r.digest.Sum(), err
		}()
	}
	v := replayed{digest: sums[0], stable: sums[0] == sums[1]}
	switch {
	case errs[0] != nil:
		v.detail = errs[0].Error()
	case errs[1] != nil:
		v.detail = "second run: " + errs[1].Error()
	case !v.stable:
		v.detail = fmt.Sprintf("digest unstable: %s vs %s",
			sim.DigestString(sums[0]), sim.DigestString(sums[1]))
	}
	return v
}
