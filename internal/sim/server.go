package sim

import "time"

// Server models a serially-reusable hardware resource — a bus, a DMA engine,
// a network link — by tracking the time at which it next becomes free.
// Callers reserve occupancy; overlapping requests queue back-to-back in
// reservation order. This gives an exact FIFO service model without any
// per-transfer events.
type Server struct {
	eng    *Engine
	freeAt Time

	// Busy accumulates total reserved time, for utilization reporting.
	Busy time.Duration
}

// MakeServer returns an idle server on e's clock. It returns the server by
// value, so a device holds its buses and ports inside its own struct
// rather than as separate objects.
func MakeServer(e *Engine) Server { return Server{eng: e} }

// Reserve books the server for dur starting no earlier than the current
// time, returning the interval [start, end) granted. The reservation is
// immediate and unconditional; callers that care about completion schedule
// an event at end or sleep until it.
func (s *Server) Reserve(dur time.Duration) (start, end Time) {
	return s.ReserveAt(s.eng.now, dur)
}

// ReserveAt books the server for dur starting no earlier than t.
func (s *Server) ReserveAt(t Time, dur time.Duration) (start, end Time) {
	if dur < 0 {
		panic("sim: negative reservation") //lint:allow transitive-panic API misuse by the caller, not a runtime condition
	}
	start = t
	if s.freeAt > start {
		start = s.freeAt
	}
	end = start.Add(dur)
	s.freeAt = end
	s.Busy += dur
	return start, end
}
