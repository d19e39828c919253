//go:build go1.23

// The constraint raises this file's language version to go1.23 for
// iter.Pull; go.mod stays at go 1.22 so the perfbench module, which
// replaces shrimp with this root and says go 1.22 itself, still builds.

package sim

import (
	"fmt"
	"iter"
	"time"
)

// Proc is a simulated sequential process, run on a runtime coroutine
// (iter.Pull) that outlives it: when the body exits the coroutine idles
// until a later Spawn binds it to another proc (see coro).
//
// Exactly one stack runs at any instant: either the engine's event loop or a
// single Proc. Control transfers by a direct coroutine switch — dispatch
// resumes the proc with next, park hands control back with yield — so it
// never passes through the Go scheduler, and a Proc may freely touch engine
// and model state while it runs: no other code can be executing
// concurrently.
//
// Procs advance virtual time with Sleep/Delay, and block on Conds. Code
// running inside a Proc must only return to the engine through these calls.
type Proc struct {
	// Name is fixed at Spawn: the replay digest hashes it there.
	Name string

	eng *Engine
	// nameHash caches nameHash(Name) for the replay digest.
	nameHash uint64
	// next runs the proc until it parks or exits; yield, valid only in the
	// proc's own context, suspends it and returns control to next's caller.
	// Both are dropped when the body exits, before the coroutine idles, so
	// a stale *Proc can never resume the coroutine's next proc.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	done  bool
	dead  bool // body exited: returned, unwound by a kill, or panicked

	wakePending bool    // an unpark event is already scheduled
	waitingOn   []*Cond // conds this proc is currently enqueued on
	waitRet     Time    // when the last cond wait returned; -1 before the first
	// recheck is the wake event BroadcastIf posts, built on first use: it
	// runs the proc if recheckReady accepts it, and otherwise renews its
	// wait on recheckCond without running it.
	recheck      func()
	recheckCond  *Cond
	recheckReady func(*Proc) bool
	killed       bool // Shutdown/Kill has asked the proc to unwind
	service      bool // daemon-style proc: excluded from deadlock diagnosis

	// wake and redispatch are the proc's two wakeup callbacks, built once
	// at Spawn so the hot paths (unpark, Sleep) schedule them
	// without allocating a closure per call.
	wake       func() // clears wakePending, then dispatches
	redispatch func() // dispatches unconditionally (sleep timers)

	// Interrupts: handlers that should run in this proc's context at its
	// next yield point (VMMC notification delivery, for one).
	pendingInterrupts []func(*Proc)

	// frames pools the state of timed WaitAny calls, one frame per
	// nesting level: an interrupt handler that runs while a timed wait is
	// parked may start a timed wait of its own, and each needs its own
	// timeout flag. waitDepth is the number of frames in use; an untimed
	// wait takes none.
	frames    []*waitFrame
	waitDepth int
}

// waitFrame is one level of timed-wait state. expire is built once, when
// the frame is first allocated, so arming a timeout allocates nothing.
type waitFrame struct {
	p        *Proc
	ev       *event // the armed timeout event
	gen      uint64 // ev's generation when armed
	timedOut bool
	expire   func()
}

// fire is the timeout: if the proc is still waiting (on whichever conds it
// waits on now — possibly a nested wait's), it is pulled out and woken, and
// this frame's wait reports a timeout.
func (f *waitFrame) fire() {
	p := f.p
	if len(p.waitingOn) > 0 {
		f.timedOut = true
		p.leaveConds()
		p.unpark()
	}
}

// killSentinel unwinds a killed proc's stack (Kill, Engine.Shutdown).
type killSentinel struct{}

// Spawn creates a process and schedules its first execution at the current
// time. fn runs in the process context; when fn returns the process is done.
// A panic in fn propagates out of whichever call resumed the proc (Engine.Run
// or Shutdown) on the caller's goroutine, with its original value; the
// engine is spent after that. Only the kill sentinel is absorbed.
//
// The proc runs on an idle coroutine left by an exited proc when there is
// one, so its stack is already grown, and on a new one otherwise.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		Name:     name,
		eng:      e,
		nameHash: nameHash(name),
		waitRet:  -1,
	}
	p.wake = func() {
		p.wakePending = false
		e.dispatch(p)
	}
	p.redispatch = func() {
		if p.dead {
			return
		}
		e.dispatch(p)
	}
	e.procs = append(e.procs, p)
	var c *coro
	if n := len(idleCoros); n > 0 {
		c = idleCoros[n-1]
		idleCoros[n-1] = nil
		idleCoros = idleCoros[:n-1]
	} else {
		c = newCoro()
	}
	c.p, c.fn = p, fn
	p.next = c.next
	e.Post(0, p.redispatch)
	return p
}

// maxIdleCoros caps the idle coroutine list: twice the 128 procs of a
// 64-node world (a daemon and an application proc per node), so booting
// worlds of that size back to back builds no coroutine once the list is
// warm. Each idle coroutine is one parked goroutine that keeps the stack
// its last body grew (see DESIGN.md "Wall-clock performance" for the
// memory bound).
const maxIdleCoros = 256

// idleCoros holds the coroutines of exited procs, for Spawn to reuse.
// One simulation thread per process, so a plain stack suffices.
var idleCoros []*coro

// IdleCoroutines reports how many coroutines wait on the idle list: parked
// goroutines that belong to no proc and no world.
func IdleCoroutines() int { return len(idleCoros) }

// coro is a proc coroutine. It outlives the proc: when a body returns or is
// unwound by the kill sentinel, the coroutine drops the proc and the body,
// puts itself on idleCoros and yields until Spawn binds it to the next
// proc. It finishes instead when the list is full, and when a body panics.
type coro struct {
	next func() (struct{}, bool)
	p    *Proc
	fn   func(*Proc)
}

func newCoro() *coro {
	c := &coro{}
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		for {
			c.run(yield)
			c.p, c.fn = nil, nil
			if len(idleCoros) == maxIdleCoros {
				return
			}
			idleCoros = append(idleCoros, c)
			// Only a later proc's next resumes it: the proc that just
			// exited has dropped next and yield.
			yield(struct{}{})
		}
	})
	return c
}

// run runs the bound body to its end. It returns when the body returned
// or was unwound by the kill sentinel; a genuine panic propagates through
// iter.Pull out of the resuming call, and finishes the coroutine.
func (c *coro) run(yield func(struct{}) bool) {
	p := c.p
	p.yield = yield
	defer func() {
		p.done = true
		p.dead = true
		p.next, p.yield = nil, nil
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				panic(r) //lint:allow transitive-panic re-propagating a genuine failure from a simulated process body; iter.Pull carries it out of next to the engine's caller
			}
		}
	}()
	if p.killed {
		// Killed before its first instruction ran: unwind without
		// executing any of the body.
		panic(killSentinel{}) //lint:allow transitive-panic the kill-unwind mechanism itself: caught by the recover above, never escapes
	}
	c.fn(p)
}

// dispatch hands control to p until its next yield. Runs in engine context.
func (e *Engine) dispatch(p *Proc) {
	if p.dead {
		return
	}
	e.traceSwitch(p)
	prev := e.cur
	e.cur = p
	p.next()
	e.cur = prev
}

// traceSwitch shows every tracer the transfer of control to p.
func (e *Engine) traceSwitch(p *Proc) {
	for _, t := range e.tracers {
		t.ProcSwitch(e.now, p)
	}
}

// park yields control back to the engine. Must be called in p's own context.
// The proc will not run again until something schedules an unpark.
func (p *Proc) park() {
	p.yield(struct{}{})
	if p.killed {
		panic(killSentinel{}) //lint:allow transitive-panic controlled unwind of a killed proc; the engine recovers the sentinel
	}
	p.runPendingInterrupts()
}

// unpark schedules the proc to resume at the current virtual time. Safe to
// call from engine context or from another proc's context. Idempotent while
// a wake is already pending.
func (p *Proc) unpark() {
	if p.wakePending || p.dead {
		return
	}
	p.wakePending = true
	p.eng.Post(0, p.wake)
}

// Kill asks the proc to unwind (via the kill sentinel) at its next
// scheduling point, as when its node crashes mid-run. Pending waits are
// abandoned; the body never runs another instruction. Idempotent; no-op
// on a proc that already exited. Must not be called by the proc on
// itself — return or panic instead.
func (p *Proc) Kill() {
	if p.dead || p.killed {
		return
	}
	if p.eng.cur == p {
		// Self-kill would deadlock the scheduler.
		panic(fmt.Sprintf("sim: proc %q cannot Kill itself", p.Name))
	}
	p.killed = true
	p.leaveConds()
	p.unpark()
}

// MarkService excludes the proc from Engine.Stalled's deadlock diagnosis:
// daemon-style procs legitimately park forever waiting for requests.
func (p *Proc) MarkService() { p.service = true }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep advances virtual time by d from the proc's perspective: the proc
// yields and resumes exactly d later. Models both CPU busy-time and idle
// waiting; the distinction is drawn by the caller (see kernel.CPU).
//
// When nothing could run before the wake, it fires in place (see
// Engine.wakeInPlace): the clock advances and the proc keeps running with
// no queued event and no coroutine switch, while the event stream, the
// event count and the switch count stay those of a queued wake.
func (p *Proc) Sleep(d time.Duration) {
	p.checkCurrent()
	if d < 0 {
		panic("sim: negative sleep") //lint:allow transitive-panic API misuse by the caller, not a runtime condition
	}
	if d == 0 {
		return
	}
	e := p.eng
	if e.wakeInPlace(p, e.now.Add(d)) {
		return
	}
	e.Post(d, p.redispatch)
	p.park()
}

func (p *Proc) checkCurrent() {
	if p.eng.cur != p {
		panic(fmt.Sprintf("sim: proc %q used outside its own context", p.Name)) //lint:allow transitive-panic coroutine-discipline violation; continuing would corrupt virtual time
	}
}

// Interrupt queues fn to run in p's context at its next yield point (or
// immediately unparks it if it is blocked on a Cond).
func (p *Proc) Interrupt(fn func(*Proc)) {
	p.pendingInterrupts = append(p.pendingInterrupts, fn)
	if len(p.waitingOn) > 0 {
		// Wake the proc out of its cond wait so the handler runs promptly.
		p.leaveConds()
		p.unpark()
	}
}

// enterConds enqueues the proc on every cond it is about to wait on, and
// counts the wait in Engine.Rewaits when it begins at the instant the
// proc's previous cond wait returned.
func (p *Proc) enterConds(conds []*Cond) {
	if p.waitRet == p.eng.now {
		p.eng.Rewaits++
	}
	for _, c := range conds {
		c.waiters = append(c.waiters, p)
	}
	p.waitingOn = append(p.waitingOn[:0], conds...)
}

// leaveConds removes the proc from every cond it is enqueued on. The
// waitingOn array is kept for the next wait, so waiting does not allocate.
func (p *Proc) leaveConds() {
	for _, c := range p.waitingOn {
		c.remove(p)
	}
	clear(p.waitingOn)
	p.waitingOn = p.waitingOn[:0]
}

func (p *Proc) runPendingInterrupts() {
	for len(p.pendingInterrupts) > 0 {
		// Dequeue by copying the tail down, so the queue keeps its
		// backing array and Interrupt does not reallocate. A handler may
		// queue more (or drain the queue in a nested yield), so re-read
		// the field every round.
		q := p.pendingInterrupts
		fn := q[0]
		n := copy(q, q[1:])
		q[n] = nil
		p.pendingInterrupts = q[:n]
		fn(p)
	}
}

// A Cond is a condition variable for procs. Waiters are woken in FIFO order.
// As with sync.Cond, waiters must re-check their predicate after waking.
type Cond struct {
	eng     *Engine
	waiters []*Proc
}

// NewCond returns a condition variable bound to e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Wait blocks p until the cond is signaled (or p is interrupted). Callers
// must loop: for !pred() { c.Wait(p) }.
func (c *Cond) Wait(p *Proc) { WaitAny(p, 0, c) }

// WaitAny blocks p until any one of the conds is signaled (or p is
// interrupted) or d elapses, whichever is first. It reports whether the
// wait timed out (true) rather than being signaled. d == 0 means no
// deadline: no timer is armed and the wait never times out. As with Wait,
// callers re-check predicates after waking.
func WaitAny(p *Proc, d time.Duration, conds ...*Cond) bool {
	p.checkCurrent()
	if len(p.pendingInterrupts) > 0 {
		p.runPendingInterrupts()
		return false
	}
	if d < 0 {
		panic("sim: negative delay") //lint:allow transitive-panic API misuse by the caller, not a runtime condition
	}
	var f *waitFrame
	if d > 0 {
		if p.waitDepth == len(p.frames) {
			f = &waitFrame{p: p}
			f.expire = f.fire
			p.frames = append(p.frames, f)
		}
		f = p.frames[p.waitDepth]
		p.waitDepth++
		f.timedOut = false
		f.ev = p.eng.post(p.eng.now.Add(d), f.expire)
		f.gen = f.ev.gen
	}
	p.enterConds(conds)
	p.park()
	p.leaveConds()
	p.waitRet = p.eng.now
	if f == nil {
		return false
	}
	p.eng.cancel(f.ev, f.gen)
	f.ev = nil
	p.waitDepth--
	return f.timedOut
}

// Signal wakes the longest-waiting proc, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	p.leaveConds() // c is among p's conds: this dequeues it from c too
	p.unpark()
}

// Broadcast wakes every waiting proc.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil // the waiters' leaveConds have nothing to remove here
	for _, p := range ws {
		p.leaveConds()
		p.unpark()
	}
	// No proc runs during the loop, so nothing re-enqueued: reuse the array.
	clear(ws)
	c.waiters = ws[:0]
}

// BroadcastIf is Broadcast for waiters that loop on ready, as in
// for !ready(p) { c.Wait(p) }. Every waiter is woken in FIFO order, as by
// Broadcast, and ready is checked at its turn, in engine context. A proc
// that ready accepts runs. One it rejects goes back to the end of the
// queue without running, which is all its own loop would have done at that
// instant. Virtual time and the event order are exactly Broadcast's; what
// is saved is the switch into each proc that would only have waited again.
// A waiter in a timed wait, or waiting on several conds, is woken as by
// Broadcast. ready must not wait or signal.
func (c *Cond) BroadcastIf(ready func(*Proc) bool) {
	ws := c.waiters
	c.waiters = nil // the woken procs' leaveConds have nothing to remove here
	for _, p := range ws {
		// A plain wait on c alone is what the proc's loop would make again.
		renewable := p.waitDepth == 0 && len(p.waitingOn) == 1
		p.leaveConds()
		if !renewable || p.wakePending || p.dead {
			p.unpark()
			continue
		}
		if p.recheck == nil {
			p.recheck = p.runOrRewait
		}
		p.recheckCond, p.recheckReady = c, ready
		p.wakePending = true
		p.eng.Post(0, p.recheck)
	}
	// No proc runs during the loop, so nothing re-enqueued: reuse the array.
	clear(ws)
	c.waiters = ws[:0]
}

// runOrRewait is a BroadcastIf wake. It runs the proc if it has anything
// to do: its predicate holds, it was killed, or an interrupt is pending.
// Otherwise it puts the proc back on the cond, as the proc's loop would.
func (p *Proc) runOrRewait() {
	p.wakePending = false
	c, ready := p.recheckCond, p.recheckReady
	p.recheckCond, p.recheckReady = nil, nil
	if !p.dead && !p.killed && len(p.pendingInterrupts) == 0 && !ready(p) {
		c.waiters = append(c.waiters, p)
		p.waitingOn = append(p.waitingOn[:0], c)
		return
	}
	p.eng.dispatch(p)
}

// remove dequeues p's first entry, copying the tail down in place so the
// queue keeps its FIFO order and its backing array.
func (c *Cond) remove(p *Proc) {
	for i, w := range c.waiters {
		if w == p {
			n := copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[i+n] = nil
			c.waiters = c.waiters[:i+n]
			return
		}
	}
}
