// Package trace is the simulation's observability subsystem: a deterministic,
// zero-wallclock collector of hierarchical spans, counters, gauges, and
// fixed-bucket histograms, all stamped in virtual time.
//
// The paper's results are explained by *where virtual time goes* — snoop
// combining, EISA DMA arbitration, mesh link occupancy, library protocol
// phases — and the collector attributes every virtual microsecond to a named
// datapath stage. Each instrumented component (the NIC's Figure-2 blocks, the
// mesh's per-link channels, the VMMC/NX/socket/SunRPC/SRPC libraries) records
// against a *track* (one per node/engine, e.g. "node0/nic", "mesh") and a
// *name* within the track (e.g. "du.dma", "link.0>1").
//
// Determinism: all timestamps are virtual and all recording happens in engine
// event order, so two runs of the same scenario produce byte-identical
// exports. Every report/export path iterates in sorted order; nothing reads
// the wall clock.
//
// Nil safety: every method on *Collector (and on the *Span handles it
// returns) is a no-op on a nil receiver, so instrumented code calls the
// collector unconditionally and an absent collector costs one nil check.
// Call sites that would otherwise build strings or read state guard with
// `if tc != nil`.
package trace

import (
	"sort"

	"shrimp/internal/sim"
)

// key identifies one instrument: a track (component instance) and a name
// (stage or metric within it).
type key struct {
	Track string
	Name  string
}

// Span is one completed interval of virtual time attributed to a named
// stage of a track.
type Span struct {
	Track string
	Name  string
	Start sim.Time
	End   sim.Time
}

// gaugeSample is one time-stamped gauge observation.
type gaugeSample struct {
	At sim.Time
	V  int64
}

// gauge is a time series of samples for one (track, name).
type gauge struct {
	samples []gaugeSample
	max     int64
}

// Collector accumulates spans, counters, gauges, and histograms for one
// simulation run. Create with New, attach a clock with Bind (cluster.New
// does this when a collector is passed in its Config), and hand the same
// collector to every component to be observed.
//
// Collector also implements sim.Tracer: when bound, it attaches itself to
// the engine with sim.Engine.AddTracer, alongside any other observer (the
// determinism digest included), and tallies raw engine events and
// per-process dispatches.
type Collector struct {
	eng *sim.Engine

	// MaxSpans, when > 0, bounds the retained span list: spans recorded
	// beyond the cap are discarded.
	// Counters, gauges, and histograms are unaffected — they are O(1) per
	// name — so a big-mesh scaling run can keep its contention histograms
	// without holding millions of per-packet channel spans. Set it before
	// traffic flows; it does not evict spans already recorded.
	MaxSpans int

	spans    []Span
	counters map[key]int64
	gauges   map[key]*gauge
	hists    map[key]*Histogram

	// engine-level tallies, fed through the sim.Tracer interface
	events   int64
	switches map[string]int64
}

// New returns an empty, unbound collector. Counters, histograms, and
// complete spans (Add) work unbound; Begin and Gauge stamp virtual time and
// need Bind first.
func New() *Collector {
	return &Collector{
		counters: make(map[key]int64),
		gauges:   make(map[key]*gauge),
		hists:    make(map[key]*Histogram),
		switches: make(map[string]int64),
	}
}

// Bind attaches the collector to an engine's clock and adds it to the
// engine's tracers, alongside any other observer. Binding the same engine
// again does not double-count. Rebinding to a fresh engine is allowed:
// successive scenarios may accumulate into one collector.
func (c *Collector) Bind(eng *sim.Engine) {
	if c == nil || eng == nil {
		return
	}
	c.eng = eng
	eng.AddTracer(c)
}

// Enabled reports whether the collector is present; instrumentation sites
// use it to skip building dynamic labels when tracing is off.
func (c *Collector) Enabled() bool { return c != nil }

// now returns the bound engine's clock, or zero when unbound.
func (c *Collector) now() sim.Time {
	if c.eng == nil {
		return 0
	}
	return c.eng.Now()
}

// --- Spans ---

// Add records a completed span [start, end) on track. Components that learn
// both endpoints up front (server reservations: DMA transfers, bus and link
// occupancy) use this form; end may lie in the virtual future.
// With MaxSpans set, spans beyond the cap are discarded.
func (c *Collector) Add(track, name string, start, end sim.Time) {
	if c == nil {
		return
	}
	if c.MaxSpans > 0 && len(c.spans) >= c.MaxSpans {
		return
	}
	c.spans = append(c.spans, Span{Track: track, Name: name, Start: start, End: end})
}

// OpenSpan is a handle to an in-progress span started with Begin.
type OpenSpan struct {
	c     *Collector
	track string
	name  string
	start sim.Time
}

// Begin opens a span starting now; call End on the handle to record it.
// On a nil collector Begin returns nil, and End on a nil handle is a no-op.
func (c *Collector) Begin(track, name string) *OpenSpan {
	if c == nil {
		return nil
	}
	return &OpenSpan{c: c, track: track, name: name, start: c.now()}
}

// End closes the span at the current virtual time and records it.
func (s *OpenSpan) End() {
	if s == nil {
		return
	}
	s.c.Add(s.track, s.name, s.start, s.c.now())
}

// Spans returns the recorded spans in recording order (engine event order).
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	return c.spans
}

// --- Counters ---

// Count adds delta to the named counter.
func (c *Collector) Count(track, name string, delta int64) {
	if c == nil {
		return
	}
	c.counters[key{track, name}] += delta
}

// Counter returns the current value of a counter (zero if never counted).
func (c *Collector) Counter(track, name string) int64 {
	if c == nil {
		return 0
	}
	return c.counters[key{track, name}]
}

// --- Gauges ---

// Gauge records a time-stamped sample of a level (FIFO occupancy, queue
// depth, credits outstanding). The summary reports the high-water mark; the
// Chrome exporter renders the full series as a counter track.
func (c *Collector) Gauge(track, name string, v int64) {
	if c == nil {
		return
	}
	k := key{track, name}
	g := c.gauges[k]
	if g == nil {
		g = &gauge{}
		c.gauges[k] = g
	}
	g.samples = append(g.samples, gaugeSample{At: c.now(), V: v})
	if v > g.max {
		g.max = v
	}
}

// HighWater returns the maximum value ever recorded for a gauge.
func (c *Collector) HighWater(track, name string) int64 {
	if c == nil {
		return 0
	}
	if g := c.gauges[key{track, name}]; g != nil {
		return g.max
	}
	return 0
}

// --- Histograms ---

// Observe folds v into the named histogram, creating it with the default
// power-of-four bounds on first use (suitable for both byte sizes and
// nanosecond latencies).
func (c *Collector) Observe(track, name string, v int64) {
	if c == nil {
		return
	}
	k := key{track, name}
	h := c.hists[k]
	if h == nil {
		h = NewHistogram(DefaultBounds())
		c.hists[k] = h
	}
	h.Observe(v)
}

// ObserveBounds is Observe with explicit bucket bounds for the histogram's
// first use: latency recorders pass FineBounds so tail quantiles (p999) stay
// meaningful at microsecond scale. Once a histogram exists, later calls fold
// into it regardless of the bounds argument, so all observers of one
// (track, name) must agree.
func (c *Collector) ObserveBounds(track, name string, bounds []int64, v int64) {
	if c == nil {
		return
	}
	k := key{track, name}
	h := c.hists[k]
	if h == nil {
		h = NewHistogram(bounds)
		c.hists[k] = h
	}
	h.Observe(v)
}

// Hist returns the named histogram, or nil if nothing was observed.
func (c *Collector) Hist(track, name string) *Histogram {
	if c == nil {
		return nil
	}
	return c.hists[key{track, name}]
}

// --- sim.Tracer ---

// Event implements sim.Tracer.
func (c *Collector) Event(at sim.Time, seq uint64) {
	if c == nil {
		return
	}
	c.events++
}

// ProcSwitch implements sim.Tracer.
func (c *Collector) ProcSwitch(at sim.Time, p *sim.Proc) {
	if c == nil {
		return
	}
	c.switches[p.Name]++
}

// EngineEvents returns the number of engine events observed via the tracer
// hook since the collector was first bound.
func (c *Collector) EngineEvents() int64 {
	if c == nil {
		return 0
	}
	return c.events
}

// --- Aggregation ---

// SpanStat is one row of the aggregated span view: all spans of one
// (track, name), with their count and total/maximum duration.
type SpanStat struct {
	Track string
	Name  string
	Count int64
	Total sim.Time // summed durations (virtual ns)
	Max   sim.Time // longest single span
}

// SpanStats aggregates the recorded spans, sorted by total duration
// descending, then track, then name — the "where did the time go" view.
func (c *Collector) SpanStats() []SpanStat {
	if c == nil {
		return nil
	}
	agg := make(map[key]*SpanStat)
	for _, s := range c.spans {
		k := key{s.Track, s.Name}
		st := agg[k]
		if st == nil {
			st = &SpanStat{Track: s.Track, Name: s.Name}
			agg[k] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		if d > st.Max {
			st.Max = d
		}
	}
	out := make([]SpanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TopSpans returns the n largest rows of SpanStats (all of them if n <= 0
// or fewer exist).
func (c *Collector) TopSpans(n int) []SpanStat {
	stats := c.SpanStats()
	if n > 0 && len(stats) > n {
		stats = stats[:n]
	}
	return stats
}

// sortedKeys returns the keys of a (track, name)-keyed map in (track, name)
// order. Every report path iterates through this, never a raw map range.
func sortedKeys[V any](m map[key]V) []key {
	ks := make([]key, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].Track != ks[j].Track {
			return ks[i].Track < ks[j].Track
		}
		return ks[i].Name < ks[j].Name
	})
	return ks
}

// sortedStrings returns the keys of a string-keyed map in order.
func sortedStrings[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
