// The warm-world pool. Booting a full cluster is the dominant fixed cost
// of every scenario run; a Pool pays it ahead of time via Prefill and
// hands out ready worlds in constant time. Pool decisions (hit, miss,
// resize) never consult the wall clock, so a harness drawing from a
// prefilled pool behaves identically run to run. A pool belongs to the
// goroutine that drives it.
package snap

import (
	"fmt"

	"shrimp/internal/cluster"
)

// Builder boots one fresh world.
type Builder func() (*cluster.Cluster, error)

// PoolStats is a point-in-time pool census.
type PoolStats struct {
	// Hits counts Gets served from warm stock; Misses counts Gets that
	// had to build inline.
	Hits, Misses int
	// Built counts every world the pool constructed, warm or inline.
	Built int
	// Discarded counts used worlds handed back for shutdown.
	Discarded int
	// Target and Ready are the configured depth and current stock.
	Target, Ready int
}

// Pool keeps ready-to-run worlds warm.
type Pool struct {
	build  Builder
	ready  []*cluster.Cluster
	target int
	stats  PoolStats
	closed bool
}

// NewBuildPool pools worlds from a boot function.
func NewBuildPool(build Builder) *Pool {
	return &Pool{build: build}
}

// NewWorldPool pools copy-on-write clones of a captured world. Every
// clone shares the image's page storage until first write, so the pool's
// marginal cost per world is a boot, not a boot plus a data load.
func NewWorldPool(w *World, opt RestoreOptions) *Pool {
	return NewBuildPool(func() (*cluster.Cluster, error) { return w.RestoreWith(opt) })
}

// SetTarget sets the desired warm depth. It does not build; call Prefill
// to stock the pool.
func (p *Pool) SetTarget(n int) {
	p.target = n
	// Shrink eagerly: an autoscaler lowering its target expects the
	// excess capacity released, not hoarded.
	for len(p.ready) > n {
		last := len(p.ready) - 1
		p.ready[last].Shutdown()
		p.ready = p.ready[:last]
		p.stats.Discarded++
	}
}

// Prefill builds until the warm stock reaches n.
func (p *Pool) Prefill(n int) error {
	for len(p.ready) < n && !p.closed {
		c, err := p.build()
		if err != nil {
			return fmt.Errorf("snap: pool prefill: %w", err)
		}
		p.ready = append(p.ready, c)
		p.stats.Built++
	}
	return nil
}

// Get returns a ready world, building inline on a miss. The caller owns
// the world and hands it to Discard when done.
func (p *Pool) Get() (*cluster.Cluster, error) {
	if len(p.ready) > 0 {
		c := p.ready[0]
		p.ready = p.ready[:copy(p.ready, p.ready[1:])]
		p.stats.Hits++
		return c, nil
	}
	p.stats.Misses++
	c, err := p.build()
	if err != nil {
		return nil, err
	}
	p.stats.Built++
	return c, nil
}

// Discard shuts down a used world. Worlds are never returned to stock:
// a scenario has mutated them, and the pool's contract is pristine boots.
func (p *Pool) Discard(c *cluster.Cluster) {
	if c == nil {
		return
	}
	c.Shutdown()
	p.stats.Discarded++
}

// Stats returns a census snapshot.
func (p *Pool) Stats() PoolStats {
	st := p.stats
	st.Target = p.target
	st.Ready = len(p.ready)
	return st
}

// Close shuts down all warm stock.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, c := range p.ready {
		c.Shutdown()
	}
	p.stats.Discarded += len(p.ready)
	p.ready = nil
}
