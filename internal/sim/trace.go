package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Tracer receives engine execution events when installed with SetTracer.
// Implementations must not mutate simulation state.
type Tracer interface {
	// Event fires before each executed event callback.
	Event(at Time, seq uint64)
	// ProcSwitch fires when control transfers to a process.
	ProcSwitch(at Time, name string)
}

// SetTracer installs (or, with nil, removes) an execution tracer. It
// composes with — never displaces — the determinism-digest tracer that
// sim.Digest attaches, so digests can be taken with a tracer installed.
func (e *Engine) SetTracer(t Tracer) {
	e.user = t
	e.retrace()
}

// Tracer returns the user-installed tracer, nil if none. The determinism
// auto tracer is engine-internal and never reported here.
func (e *Engine) Tracer() Tracer { return e.user }

// CountingTracer is a minimal Tracer that tallies events and per-process
// dispatch counts — enough to answer "what is the simulation spending its
// events on" without logging overhead.
type CountingTracer struct {
	Events   int64
	Switches map[string]int64
	LastAt   Time
}

// NewCountingTracer returns an empty tracer.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{Switches: make(map[string]int64)}
}

// Event implements Tracer.
func (c *CountingTracer) Event(at Time, seq uint64) {
	c.Events++
	c.LastAt = at
}

// ProcSwitch implements Tracer.
func (c *CountingTracer) ProcSwitch(at Time, name string) {
	c.Switches[name]++
	c.LastAt = at
}

// Summary renders the per-process dispatch counts, busiest first.
func (c *CountingTracer) Summary() string {
	type kv struct {
		name string
		n    int64
	}
	var rows []kv
	for name, n := range c.Switches {
		rows = append(rows, kv{name, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%d events through %v\n", c.Events, c.LastAt)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %8d dispatches\n", r.name, r.n)
	}
	return b.String()
}

// String renders the tracer's state on one line with the per-process
// dispatch counts in sorted name order, so the output is deterministic.
func (c *CountingTracer) String() string {
	names := make([]string, 0, len(c.Switches))
	for name := range c.Switches {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d last=%v switches={", c.Events, c.LastAt)
	for i, name := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", name, c.Switches[name])
	}
	b.WriteByte('}')
	return b.String()
}

// LogTracer records a bounded textual trace of process switches, for test
// failure diagnostics.
type LogTracer struct {
	Max   int
	Lines []string
}

// Event implements Tracer.
func (l *LogTracer) Event(at Time, seq uint64) {}

// ProcSwitch implements Tracer.
func (l *LogTracer) ProcSwitch(at Time, name string) {
	if l.Max > 0 && len(l.Lines) >= l.Max {
		return
	}
	l.Lines = append(l.Lines, fmt.Sprintf("%v %s", at, name))
}
