package sim

import "testing"

// timedWaitRig is a proc that, each round, blocks untimed on start and then
// makes one WaitAnyTimeout on c — optionally interrupted mid-wait by a
// handler that makes a nested timed wait of its own. Every callback is
// built once, so a warm round allocates only what the engine does.
type timedWaitRig struct {
	e             *Engine
	start, c      *Cond
	waiter        *Proc
	outer, inner  int64 // timeouts in µs
	signalAt      int64 // 0: never signal c
	interruptAt   int64 // 0: never interrupt
	outerTO       bool
	innerTO       bool
	rounds        int
	signal, intr  func()
	handler       func(*Proc)
	startRoundNow func()
}

func newTimedWaitRig() *timedWaitRig {
	r := &timedWaitRig{e: NewEngine()}
	r.start, r.c = NewCond(r.e), NewCond(r.e)
	r.signal = func() { r.c.Broadcast() }
	r.handler = func(p *Proc) { r.innerTO = WaitAnyTimeout(p, us(r.inner), r.c) }
	r.intr = func() { r.waiter.Interrupt(r.handler) }
	r.waiter = r.e.Spawn("waiter", func(p *Proc) {
		for {
			r.start.Wait(p)
			r.outerTO = WaitAnyTimeout(p, us(r.outer), r.c)
			r.rounds++
		}
	})
	r.e.RunAll()
	return r
}

// round runs one timed wait to completion.
func (r *timedWaitRig) round() {
	r.start.Signal()
	if r.signalAt > 0 {
		r.e.Post(us(r.signalAt), r.signal)
	}
	if r.interruptAt > 0 {
		r.e.Post(us(r.interruptAt), r.intr)
	}
	r.e.RunAll()
}

func TestWaitAnyTimeoutFrames(t *testing.T) {
	cases := []struct {
		name                     string
		outer, inner, sig, intr  int64
		wantOuterTO, wantInnerTO bool
		wantElapsed              int64
	}{
		{name: "signaled", outer: 10, sig: 3, wantElapsed: 3},
		{name: "timed out", outer: 10, wantOuterTO: true, wantElapsed: 10},
		// The handler's own wait times out; the outer wait was
		// interrupted, not timed out.
		{name: "nested inner times out", outer: 100, inner: 5, intr: 1, wantInnerTO: true, wantElapsed: 6},
		// The outer deadline passes while the handler waits: the outer
		// frame records the timeout and the inner wait is woken, not
		// timed out — each level keeps its own flag.
		{name: "nested outer fires first", outer: 10, inner: 100, intr: 1, wantOuterTO: true, wantElapsed: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTimedWaitRig()
			r.outer, r.inner, r.signalAt, r.interruptAt = tc.outer, tc.inner, tc.sig, tc.intr
			for i := 0; i < 3; i++ { // later rounds reuse the frames
				r.innerTO = false
				t0 := r.e.Now()
				r.round()
				if r.outerTO != tc.wantOuterTO || r.innerTO != tc.wantInnerTO {
					t.Fatalf("round %d: timed out outer=%v inner=%v, want %v/%v",
						i, r.outerTO, r.innerTO, tc.wantOuterTO, tc.wantInnerTO)
				}
				if got := int64(r.e.Now().Sub(t0) / us(1)); got != tc.wantElapsed {
					t.Fatalf("round %d: took %dus, want %dus", i, got, tc.wantElapsed)
				}
				if !r.e.Idle() {
					t.Fatalf("round %d: %d events left queued; the timeout was not canceled", i, r.e.QueueLen())
				}
			}
			if r.rounds != 3 {
				t.Fatalf("%d rounds completed, want 3", r.rounds)
			}
			r.e.Shutdown()
		})
	}
}

// Timed waits must not allocate once warm, on the signaled path, the
// timed-out path, and nested under an interrupt handler.
func TestWaitAnyTimeoutAllocFree(t *testing.T) {
	cases := []struct {
		name                    string
		outer, inner, sig, intr int64
	}{
		{name: "signaled", outer: 10, sig: 3},
		{name: "timed out", outer: 10},
		{name: "nested", outer: 100, inner: 5, intr: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTimedWaitRig()
			r.outer, r.inner, r.signalAt, r.interruptAt = tc.outer, tc.inner, tc.sig, tc.intr
			r.round() // warm the frames, the event free list and the waiter arrays
			if allocs := testing.AllocsPerRun(100, r.round); allocs != 0 {
				t.Fatalf("%v allocs per timed wait, want 0", allocs)
			}
			r.e.Shutdown()
		})
	}
}
