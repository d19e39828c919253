package sim

// Tracer observes engine execution once attached with AddTracer.
// Implementations must not mutate simulation state.
type Tracer interface {
	// Event fires before each executed event callback.
	Event(at Time, seq uint64)
	// ProcSwitch fires when control transfers to process p.
	ProcSwitch(at Time, p *Proc)
}

// AddTracer attaches an execution observer. It is the one way anything
// watches an engine: the sim.Digest hook, cluster.Config.Auto and a bound
// trace.Collector all come through here, and every attached tracer sees
// every event and process switch, in the order the tracers were added.
// Adding a tracer that is already attached is a no-op, so an observer never
// counts an event twice. Tracers stay attached for the engine's lifetime.
func (e *Engine) AddTracer(t Tracer) {
	for _, have := range e.tracers {
		if have == t {
			return
		}
	}
	e.tracers = append(e.tracers, t)
}
