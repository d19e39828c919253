// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and an ordered event queue. All simulated
// activity — CPU work, bus transfers, DMA engines, network links, and the
// user-level library code of the SHRIMP reproduction — executes as events on
// this clock, so measured latencies and bandwidths are exact and perfectly
// repeatable.
//
// Two execution styles coexist:
//
//   - Plain events: funcs scheduled with Engine.Schedule/At (or the
//     fire-and-forget Post/PostAt fast path), used by hardware models
//     (NIC engines, mesh links, timers).
//   - Processes: runtime coroutines (Proc, built on iter.Pull) for code that
//     reads naturally as sequential — application programs, library protocol
//     code, daemons. Exactly one stack (the engine loop or a single Proc)
//     runs at a time and control passes by direct coroutine switch, never
//     through the Go scheduler, so no locking is needed anywhere in the
//     simulation and execution order is fully deterministic.
//
// The event core is performance-engineered for wall-clock speed without
// giving up one bit of determinism (see DESIGN.md "Wall-clock performance").
// Pending events live in one of three stores, chosen once when an event is
// posted:
//
//   - an event for the current instant goes on a FIFO;
//   - an event due less than wheelSpan (65.536 µs) after the start of the
//     current instant's 512 ns bucket goes on a timing wheel of 128 such
//     buckets, each a list sorted by (time, seq);
//   - anything later goes into a concrete 4-ary min-heap whose slots carry
//     the (time, seq) key inline, so a comparison never leaves the slot
//     array.
//
// Nearly every event is due within the wheel's span, so most events never
// sift through the heap. A pop takes the earlier of the wheel's head and
// the heap's top; FIFO entries carry larger seqs than any wheel or heap
// event at the same instant, so those drain first. seq is unique, so
// (time, seq) is a strict total order: any correct priority queue, and so
// this one, fires events in exactly the same order. Events are recycled on
// a free list instead of allocated per Schedule, and canceled timers are
// unlinked eagerly rather than riding to their deadline.
//
// A Proc.Sleep whose wake nothing could precede fires that wake in place:
// when no live current-instant entry is queued, the heap top lies strictly
// after the wake, the wake does not pass the limit of the Run in progress,
// the engine is not halted, and the proc has no pending interrupt and has
// not been killed, the clock advances and the proc keeps running without a
// heap push, a pop or a coroutine switch. The wake is still an event: it
// takes the next seq, counts in EventsRun, and every tracer sees it and the
// switch to the proc through the same helpers Run uses, so replay digests,
// event counts and switch counts are those of a queued wake.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) time.Duration { return time.Duration(t - earlier) }

// Microseconds reports t as a floating-point microsecond count, the unit the
// paper's figures use.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Microseconds()) }

// event is a scheduled callback. Events with equal deadlines fire in the
// order they were scheduled (seq breaks ties), which makes the simulation
// deterministic.
//
// Events are pooled: after firing or cancellation they return to the
// engine's free list and their generation counter is bumped, so a stale
// Timer handle can never cancel an unrelated recycled event.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// index is the event's heap position, or one of the sentinels below.
	index int
	// next links a wheel event to the next one in its bucket.
	next *event
	// gen increments every time the event is recycled; Timer handles
	// remember the generation they were issued against.
	gen uint64
}

// index sentinels for events that are not in the heap.
const (
	indexFired = -1 // popped for execution (or freshly recycled)
	indexNowQ  = -2 // waiting in the current-instant FIFO
	indexWheel = -3 // waiting in a wheel bucket
)

// Timer is a handle to a scheduled event that can be canceled or re-armed.
// The zero Timer is inert: Stop and Pending report false, Reset is a no-op.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
	// fn is the callback captured at Schedule time, kept on the handle so
	// Reset can re-arm after the underlying event was recycled.
	fn func()
}

// Stop cancels the timer if it has not fired, removing the event from the
// queue immediately — a canceled timer costs nothing from this point on.
// It reports whether the timer was still pending.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	ev := t.ev
	t.ev = nil
	return t.eng.cancel(ev, t.gen)
}

// Pending reports whether the timer is still scheduled to fire.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen && t.ev.index != indexFired
}

// Reset re-arms the timer to fire d from now with its original callback,
// whether it is pending, stopped, or has already fired. It reports whether
// the timer was still pending (and was therefore canceled) before re-arming.
// Resetting a zero or spent handle (no engine or callback) is a no-op that
// reports false rather than a panic. A negative d panics as Schedule does,
// before the timer is touched.
func (t *Timer) Reset(d time.Duration) bool {
	if t == nil || t.eng == nil || t.fn == nil {
		return false
	}
	if d < 0 {
		panic("sim: negative delay")
	}
	wasPending := t.Stop()
	ev := t.eng.post(t.eng.now.Add(d), t.fn)
	t.ev, t.gen = ev, ev.gen
	return wasPending
}

// heapEnt is one slot of the event queue. The (at, seq) key rides inline
// beside the event pointer, so a comparison reads the slot it is already
// looking at instead of dereferencing two events.
type heapEnt struct {
	at  Time
	seq uint64
	ev  *event
}

// before reports whether slot a fires before slot b. seq is unique, so
// (at, seq) is a strict total order and the pop order is fully determined.
func (a *heapEnt) before(b *heapEnt) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// The queue is a 4-ary min-heap: slot i's children are 4i+1..4i+4. A wider
// node halves the tree height of a binary heap, and the four children of a
// node share a cache line or two. Sifts move a hole rather than swapping,
// writing each moved event's index once.

// push inserts ev into the heap.
func (e *Engine) push(ev *event) {
	e.queue = append(e.queue, heapEnt{})
	e.siftUp(len(e.queue)-1, heapEnt{at: ev.at, seq: ev.seq, ev: ev})
}

// pop removes and returns the earlier of the wheel's head and the heap's
// top, comparing (at, seq), or nil when both are empty.
func (e *Engine) pop() *event {
	if e.wheelLen == 0 {
		if len(e.queue) == 0 {
			return nil
		}
		return e.popHeap()
	}
	bk := &e.wheel[e.wheelBkt]
	ev := bk.head
	if len(e.queue) > 0 {
		if h := &e.queue[0]; h.at < ev.at || (h.at == ev.at && h.seq < ev.seq) {
			return e.popHeap()
		}
	}
	bk.head = ev.next
	if ev.next == nil {
		bk.tail = nil
	}
	ev.next = nil
	ev.index = indexFired
	e.wheelLen--
	e.wheelSettle(e.wheelBkt)
	return ev
}

// popHeap removes and returns the heap's top. The heap must be non-empty.
func (e *Engine) popHeap() *event {
	ev := e.queue[0].ev
	e.removeAt(0)
	return ev
}

// removeAt deletes slot i: the last slot moves into the hole and sifts up
// or down to restore the heap property.
func (e *Engine) removeAt(i int) {
	q := e.queue
	n := len(q) - 1
	q[i].ev.index = indexFired
	last := q[n]
	q[n] = heapEnt{}
	e.queue = q[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&q[(i-1)/4]) {
		e.siftUp(i, last)
	} else {
		e.siftDown(i, last)
	}
}

// siftUp places x, whose hole is at slot i, by moving larger parents down.
func (e *Engine) siftUp(i int, x heapEnt) {
	q := e.queue
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = x
	x.ev.index = i
}

// siftDown places x, whose hole is at slot i, by moving smaller children up.
func (e *Engine) siftDown(i int, x heapEnt) {
	q := e.queue
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&x) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = x
	x.ev.index = i
}

// The near-future timing wheel: wheelBuckets buckets of 1<<wheelShift ns
// each. An event is routed to the wheel when it is due less than wheelSpan
// after the start of the current instant's bucket. Time only moves forward,
// so every wheel event then stays within one lap of now's bucket: bucket b
// holds only events of one 512 ns window, and the first non-empty bucket
// at or after now's, wrapping round, holds the earliest event.
const (
	wheelShift   = 9
	wheelBuckets = 128
	wheelMask    = wheelBuckets - 1
	wheelSpan    = Time(wheelBuckets << wheelShift)
)

// maxTime is wheelMin while the wheel is empty: no event lies after it.
const maxTime = Time(math.MaxInt64)

// wheelArray is the wheel's buckets. Each is a list sorted by (at, seq),
// linked through event.next from head to tail.
type wheelArray [wheelBuckets]struct{ head, tail *event }

// wheelAdd links ev into its bucket and updates the earliest-bucket cache.
// ev carries the largest seq yet, so it goes after every event due at or
// before it: at the tail, unless the bucket holds a later event.
func (e *Engine) wheelAdd(ev *event) {
	b := int(ev.at>>wheelShift) & wheelMask
	bk := &e.wheel[b]
	ev.index = indexWheel
	switch t := bk.tail; {
	case t == nil:
		bk.head, bk.tail = ev, ev
		e.wheelBits[b>>6] |= 1 << (b & 63)
	case t.at <= ev.at:
		t.next = ev
		bk.tail = ev
	default:
		// The tail is due after ev, so the walk stops at or before it.
		p := &bk.head
		for (*p).at <= ev.at {
			p = &(*p).next
		}
		ev.next = *p
		*p = ev
	}
	e.wheelLen++
	if ev.at < e.wheelMin {
		e.wheelMin, e.wheelBkt = ev.at, b
	}
}

// wheelRemove unlinks a canceled wheel event from its bucket.
func (e *Engine) wheelRemove(ev *event) {
	b := int(ev.at>>wheelShift) & wheelMask
	bk := &e.wheel[b]
	var prev *event
	for cur := bk.head; cur != ev; cur = cur.next {
		prev = cur
	}
	if prev == nil {
		bk.head = ev.next
	} else {
		prev.next = ev.next
	}
	if bk.tail == ev {
		bk.tail = prev
	}
	ev.next = nil
	e.wheelLen--
	switch {
	case prev == nil && b == e.wheelBkt:
		e.wheelSettle(b)
	case bk.head == nil:
		e.wheelBits[b>>6] &^= 1 << (b & 63)
	}
}

// wheelSettle refreshes the earliest-bucket cache after the head of bucket
// b, the cached one, left it. If the bucket emptied, the earliest bucket is
// the first non-empty one at or after now's, wrapping round: probe now's
// word from now's bit up, then the other word, then now's word again,
// whose bits from now's up are known clear. A clear bitmap empties the
// cache.
func (e *Engine) wheelSettle(b int) {
	if h := e.wheel[b].head; h != nil {
		e.wheelMin = h.at
		return
	}
	e.wheelBits[b>>6] &^= 1 << (b & 63)
	s := int(e.now>>wheelShift) & wheelMask
	w := s >> 6
	if m := e.wheelBits[w] >> (s & 63); m != 0 {
		b = s + bits.TrailingZeros64(m)
	} else if m := e.wheelBits[w^1]; m != 0 {
		b = (w^1)<<6 | bits.TrailingZeros64(m)
	} else if m := e.wheelBits[w]; m != 0 {
		b = w<<6 | bits.TrailingZeros64(m)
	} else {
		e.wheelMin = maxTime
		return
	}
	e.wheelBkt, e.wheelMin = b, e.wheel[b].head.at
}

// headAt is the time of the earliest wheel or heap event, or maxTime when
// both are empty.
func (e *Engine) headAt() Time {
	if len(e.queue) > 0 && e.queue[0].at < e.wheelMin {
		return e.queue[0].at
	}
	return e.wheelMin
}

// Engine is a discrete-event simulator instance.
type Engine struct {
	now   Time
	seq   uint64
	queue []heapEnt
	// nowQ is the current-instant FIFO: events scheduled for exactly the
	// current time skip the wheel and the heap. Everything in nowQ carries
	// a seq larger than any same-instant event in the wheel or the heap
	// (those were necessarily scheduled before time advanced to it), so
	// draining them first at equal times reproduces the exact (at, seq)
	// order a pure heap would give. nowHead indexes the next entry; the
	// slice is reset when it drains.
	nowQ    []*event
	nowHead int
	// nowLive counts non-canceled nowQ entries, for O(1) Idle.
	nowLive int
	// free is the event free list. Events are recycled after firing or
	// cancellation; their gen counter invalidates outstanding Timers.
	free   []*event
	procs  []*Proc
	cur    *Proc // proc currently holding execution, nil in event context
	halted bool
	// limit is the limit of the Run in progress (<= 0: none). A wake that
	// Proc.Sleep fires in place must not pass it.
	limit Time
	// tracers observe execution, in the order they were added.
	tracers []Tracer

	// Stats, exposed for tests and the bench harness.
	EventsRun int64
	// Rewaits counts cond waits a proc entered at the same virtual
	// instant its previous cond wait returned: a wake that changed nothing
	// the proc could act on, so it went straight back to sleep. A proc
	// that Cond.BroadcastIf puts back without running is not counted: its
	// wait never returned.
	Rewaits int64

	// wheel holds the events due within wheelSpan (see wheelAdd).
	// wheelBits marks its non-empty buckets, wheelLen counts its events,
	// and wheelBkt and wheelMin cache the earliest bucket and its head's
	// time (maxTime while the wheel is empty). These fields come last so
	// that the hot fields above keep their offsets; placed after queue,
	// they slowed the shallow-queue paper sweep measurably.
	wheel     wheelArray
	wheelBits [2]uint64
	wheelLen  int
	wheelBkt  int
	wheelMin  Time
}

// NewEngine returns an engine with the clock at zero. Inside a sim.Digest
// call it starts with that call's digest tracer attached.
func NewEngine() *Engine {
	e := &Engine{wheelMin: maxTime}
	if autoTracer != nil {
		e.AddTracer(autoTracer)
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// QueueLen reports the number of live (non-canceled) events currently
// queued, for tests and diagnostics — with eager timer removal this stays
// bounded by the true amount of pending work, not by cancellation history.
func (e *Engine) QueueLen() int { return len(e.queue) + e.wheelLen + e.nowLive }

// alloc takes an event from the free list or the allocator.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a dead event to the free list, invalidating Timers.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.index = indexFired
	e.free = append(e.free, ev)
}

// post is the common scheduling path: assign the next seq and enqueue.
// Events for the current instant go to the FIFO, events due within the
// wheel's span of now's bucket to the wheel, everything else into the heap.
func (e *Engine) post(t Time, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now)) //lint:allow transitive-panic causality violation in the event core; no error return could be trusted after it
	}
	e.seq++
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	if t == e.now {
		ev.index = indexNowQ
		e.nowQ = append(e.nowQ, ev)
		e.nowLive++
	} else if t-e.now&^(1<<wheelShift-1) < wheelSpan {
		e.wheelAdd(ev)
	} else {
		e.push(ev)
	}
	return ev
}

// cancel removes ev from the queue if it is still the event issued at
// generation gen and has not fired, reporting whether it was pending.
// Timer.Stop and the handle-free timed waits (WaitAny with a deadline)
// share it; the generation check makes a stale cancel of a recycled event
// a no-op.
func (e *Engine) cancel(ev *event, gen uint64) bool {
	if ev.gen != gen {
		return false
	}
	switch {
	case ev.index >= 0:
		e.removeAt(ev.index)
		e.recycle(ev)
		return true
	case ev.index == indexWheel:
		e.wheelRemove(ev)
		e.recycle(ev)
		return true
	case ev.index == indexNowQ:
		// In the current-instant FIFO: mark canceled (the run loop
		// recycles it when it reaches the head).
		ev.index = indexFired
		ev.fn = nil
		e.nowLive--
		return true
	default:
		return false
	}
}

// Schedule arranges for fn to run d from now. d must be non-negative.
// The returned Timer, which is heap-allocated on every call, may be used to
// cancel or re-arm the event. A caller that drops the handle must use Post
// instead: it fires at the same instant in the same order and allocates
// nothing (shrimplint's discarded-timer rule enforces this).
func (e *Engine) Schedule(d time.Duration, fn func()) *Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	ev := e.post(e.now.Add(d), fn)
	return &Timer{eng: e, ev: ev, gen: ev.gen, fn: fn}
}

// Post arranges for fn to run d from now, without a cancellation handle —
// the allocation-free fast path for fire-and-forget events (process
// wakeups, DMA completions, packet arrivals).
func (e *Engine) Post(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay") //lint:allow transitive-panic API misuse by the caller, not a runtime condition
	}
	e.post(e.now.Add(d), fn)
}

// PostAt is Post at an absolute virtual time.
func (e *Engine) PostAt(t Time, fn func()) {
	e.post(t, fn)
}

// Halt stops the run loop after the current event completes. Pending events
// remain queued; Run may be called again to continue.
func (e *Engine) Halt() { e.halted = true }

// next dequeues the earliest live event, honoring the wheel-and-heap-
// before-FIFO rule at equal times, or returns nil when no events remain.
func (e *Engine) next() *event {
	for {
		if e.nowHead < len(e.nowQ) {
			// FIFO entries are at the current instant; wheel and heap
			// entries for the same instant carry smaller seqs and must
			// fire first.
			if e.headAt() <= e.now {
				return e.pop()
			}
			ev := e.nowQ[e.nowHead]
			e.nowQ[e.nowHead] = nil
			e.nowHead++
			if e.nowHead == len(e.nowQ) {
				e.nowQ = e.nowQ[:0]
				e.nowHead = 0
			}
			if ev.index != indexNowQ {
				// Canceled while queued; reclaim and keep scanning.
				e.recycle(ev)
				continue
			}
			e.nowLive--
			ev.index = indexFired
			return ev
		}
		return e.pop()
	}
}

// Run executes events until the queue drains, the engine is halted, or every
// remaining event is beyond limit (limit <= 0 means no limit). It returns the
// virtual time at which it stopped.
func (e *Engine) Run(limit Time) Time {
	e.halted = false
	e.limit = limit
	for !e.halted {
		// Peek before dequeuing: a live FIFO entry is at the current
		// instant, so only the wheel's head and the heap's top can lie
		// beyond the limit.
		if limit > 0 && e.nowLive == 0 && e.headAt() > limit && !e.Idle() {
			e.now = limit
			break
		}
		next := e.next()
		if next == nil {
			break
		}
		if next.at < e.now {
			panic("sim: time went backwards")
		}
		fn := next.fn
		e.fire(next.at, next.seq)
		e.recycle(next)
		fn()
	}
	return e.now
}

// fire advances the clock to an event's instant, counts the event and shows
// it to every tracer in the order they were added. It is the one source of
// the logical event stream: Run calls it for every queued event and
// wakeInPlace for every wake it fires without queueing.
func (e *Engine) fire(at Time, seq uint64) {
	e.now = at
	e.EventsRun++
	for _, t := range e.tracers {
		t.Event(at, seq)
	}
}

// wakeInPlace fires the wake of p, which is running and about to sleep
// until t, without queueing it, and reports whether it did. It does so
// only when Run, had the wake been queued, would pop it next and resume p:
//   - no live entry waits in the current-instant FIFO;
//   - the wheel and the heap hold nothing at or before t (an event at t
//     carries a smaller seq and fires first);
//   - t does not pass the limit of the Run in progress;
//   - the engine is not halted;
//   - p has no pending interrupt and has not been killed, so nothing in
//     park would run or unwind on resume.
//
// The wake is still an event: it takes the next seq, counts in EventsRun,
// and every tracer sees it and then the switch to p, exactly as if it had
// been queued. Only the push, the pop and the coroutine round trip are
// saved.
func (e *Engine) wakeInPlace(p *Proc, t Time) bool {
	if e.nowLive > 0 || e.headAt() <= t ||
		(e.limit > 0 && t > e.limit) || e.halted ||
		len(p.pendingInterrupts) > 0 || p.killed {
		return false
	}
	// Canceled FIFO entries belong to the instant being left: reclaim
	// them in order, as next would on its way to the wake.
	if len(e.nowQ) > 0 {
		for _, ev := range e.nowQ[e.nowHead:] {
			e.recycle(ev)
		}
		clear(e.nowQ)
		e.nowQ = e.nowQ[:0]
		e.nowHead = 0
	}
	e.seq++
	e.fire(t, e.seq)
	e.traceSwitch(p)
	return true
}

// RunAll executes until no events remain.
func (e *Engine) RunAll() Time { return e.Run(0) }

// Shutdown unwinds every parked process (daemons and servers block forever
// by design; a long-lived host program releases their stacks here once the
// simulation is over). The engine must not be running. After
// Shutdown the engine is spent: procs are dead and only plain events could
// still execute.
func (e *Engine) Shutdown() {
	if e.cur != nil {
		// A harness sequencing bug: teardown only runs between simulations.
		panic("sim: Shutdown from inside a proc")
	}
	for _, p := range e.procs {
		p.killed = true
		// Resume inside park(), which panics killSentinel; the body
		// unwinds and reports dead before next returns. A deferred
		// cleanup that parks again (a Sleep, a Cond wait) is resumed
		// into the same sentinel, which cuts it off at that point.
		// These switches are not traced.
		for !p.dead {
			e.cur = p
			p.next()
			e.cur = nil
		}
	}
}

// Idle reports whether no events are pending.
func (e *Engine) Idle() bool {
	return len(e.queue) == 0 && e.wheelLen == 0 && e.nowLive == 0
}

// Stalled returns the names of processes that are parked with no way to
// make progress if the event queue is empty: started, not done, and not
// marked as service procs (daemons legitimately park forever awaiting
// requests). Spawn order, so the list is deterministic.
func (e *Engine) Stalled() []string {
	var out []string
	for _, p := range e.procs {
		if p.done || p.dead || p.service {
			continue
		}
		out = append(out, p.Name)
	}
	return out
}

// DeadlockError is RunChecked's diagnosis when a simulation fails to run
// to completion: which processes were blocked, when, and why the run
// stopped. It turns "the simulation hung" into an actionable report.
type DeadlockError struct {
	At      Time
	Reason  string
	Blocked []string
}

// Error implements error.
func (d *DeadlockError) Error() string {
	list := "none (event livelock)"
	if len(d.Blocked) > 0 {
		list = fmt.Sprintf("%d blocked: %v", len(d.Blocked), d.Blocked)
	}
	return fmt.Sprintf("sim: deadlock at %v (%s); procs %s", d.At, d.Reason, list)
}

// RunChecked is the watchdog run loop: execute events until the queue
// drains or virtual time reaches budget, then diagnose. A drained queue
// with non-service procs still parked means those procs can never run
// again — the classic lost-wakeup deadlock. An exhausted budget with
// events still pending means the run overran (livelock or runaway
// retry). Either way the returned DeadlockError names the blocked procs.
func (e *Engine) RunChecked(budget Time) (Time, error) {
	t := e.Run(budget)
	if !e.Idle() {
		return t, &DeadlockError{At: t, Reason: "time budget exhausted with events still pending", Blocked: e.Stalled()}
	}
	if blocked := e.Stalled(); len(blocked) > 0 {
		return t, &DeadlockError{At: t, Reason: "event queue drained", Blocked: blocked}
	}
	return t, nil
}
