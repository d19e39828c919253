package sim

import (
	"fmt"
	"slices"
	"testing"
)

// timedWaitRig is a proc that, each round, blocks untimed on start and then
// makes one WaitAny on c with the outer deadline — optionally interrupted
// mid-wait by a handler that makes a nested timed wait of its own. Every callback is
// built once, so a warm round allocates only what the engine does.
type timedWaitRig struct {
	e             *Engine
	start, c      *Cond
	waiter        *Proc
	outer, inner  int64 // timeouts in µs; an outer 0 waits untimed
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
	r.handler = func(p *Proc) { r.innerTO = WaitAny(p, us(r.inner), r.c) }
	r.intr = func() { r.waiter.Interrupt(r.handler) }
	r.waiter = r.e.Spawn("waiter", func(p *Proc) {
		for {
			r.start.Wait(p)
			r.outerTO = WaitAny(p, us(r.outer), r.c)
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
		{name: "untimed", sig: 3, wantElapsed: 3},
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

// Waits must not allocate once warm: untimed, and timed on the signaled
// path, the timed-out path, and nested under an interrupt handler.
func TestWaitAnyTimeoutAllocFree(t *testing.T) {
	cases := []struct {
		name                    string
		outer, inner, sig, intr int64
	}{
		{name: "untimed", sig: 3},
		{name: "untimed nested", inner: 5, sig: 8, intr: 1},
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
				t.Fatalf("%v allocs per wait, want 0", allocs)
			}
			r.e.Shutdown()
		})
	}
}

// TestWaitAnyZeroDeadline pins the d == 0 contract: an untimed wait arms
// no timer and takes no wait frame, so a proc parked in it leaves the event
// queue empty, and a timed wait that is signaled cancels its timer.
func TestWaitAnyZeroDeadline(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var timedOut []bool
	waiter := e.Spawn("waiter", func(p *Proc) {
		for {
			timedOut = append(timedOut, WaitAny(p, 0, c))
			timedOut = append(timedOut, WaitAny(p, us(10), c))
		}
	})
	for round := 0; round < 2; round++ {
		e.RunAll()
		if n := e.QueueLen(); n != 0 {
			t.Fatalf("round %d: parked untimed with %d events queued, want 0", round, n)
		}
		if waiter.waitDepth != 0 {
			t.Fatalf("round %d: untimed wait took %d wait frames", round, waiter.waitDepth)
		}
		e.Post(us(1), c.Signal)
		e.Run(e.Now().Add(us(2)))
		if n := e.QueueLen(); n != 1 {
			t.Fatalf("round %d: parked timed with %d events queued, want its timer only", round, n)
		}
		e.Post(us(1), c.Signal)
	}
	e.RunAll()
	if n := e.QueueLen(); n != 0 {
		t.Fatalf("a signaled timed wait left %d events queued", n)
	}
	if want := []bool{false, false, false, false}; !slices.Equal(timedOut, want) {
		t.Fatalf("timed out = %v, want %v", timedOut, want)
	}
	if got := e.Now(); got != Time(0).Add(us(6)) {
		t.Fatalf("now = %v, want 6us: a timeout fired", got)
	}
	e.Shutdown()
}

// TestRewaits pins Engine.Rewaits' definition: a cond wait counts when it
// begins at the virtual instant the proc's previous cond wait returned. A
// proc's first wait, a wait after time passed, and a wait that returns
// with the predicate true do not count.
func TestRewaits(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	ready := false
	e.Spawn("waiter", func(p *Proc) {
		for !ready { // t=0: the first wait, never a re-wait
			c.Wait(p)
		}
		p.Sleep(us(1))
		c.Wait(p) // t=3: time passed since the last return
	})
	e.Post(us(1), c.Broadcast) // predicate still false: one re-wait
	e.Post(us(1), c.Broadcast) // same instant, proc not yet waiting again
	e.Post(us(2), func() { ready = true; c.Signal() })
	e.Post(us(4), c.Signal)
	e.RunAll()
	if e.Rewaits != 1 {
		t.Fatalf("Rewaits = %d, want 1", e.Rewaits)
	}
}

// eventLog records the event stream and counts proc switches.
type eventLog struct {
	events   []Time
	switches int
}

func (l *eventLog) Event(at Time, seq uint64) { l.events = append(l.events, at, Time(seq)) }
func (l *eventLog) ProcSwitch(Time, *Proc)    { l.switches++ }

// TestBroadcastIfMatchesBroadcast drives one seeded scenario twice, waking
// the waiters with Broadcast and then with BroadcastIf, and requires the
// same event stream and the same record of which proc did what when:
// BroadcastIf may only save proc switches. Workers loop on their own work
// counters, often wait again at the instant they woke, and have work added
// with and without a wake; one waiter makes timed waits, which BroadcastIf
// wakes as Broadcast does.
func TestBroadcastIfMatchesBroadcast(t *testing.T) {
	run := func(filtered bool) (*eventLog, []string) {
		e := NewEngine()
		l := &eventLog{}
		e.AddTracer(l)
		c := NewCond(e)
		const workers = 5
		work := make([]int, workers+1) // the last slot is the timed waiter's
		idx := map[*Proc]int{}
		ready := func(p *Proc) bool { return work[idx[p]] > 0 }
		var did []string
		for i := 0; i < workers; i++ {
			i := i
			p := e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for k := 0; ; k++ {
					for work[i] == 0 {
						c.Wait(p)
					}
					work[i]--
					did = append(did, fmt.Sprintf("%v w%d", p.Now(), i))
					if (i+k)%3 == 0 {
						p.Sleep(us(1))
					}
				}
			})
			idx[p] = i
		}
		e.Spawn("timed", func(p *Proc) {
			for p.Now() < Time(us(80)) {
				if work[workers] == 0 {
					if WaitAny(p, us(3), c) {
						did = append(did, fmt.Sprintf("%v timeout", p.Now()))
					}
					continue
				}
				work[workers]--
				did = append(did, fmt.Sprintf("%v timed", p.Now()))
			}
		})
		wake := c.Broadcast
		if filtered {
			wake = func() { c.BroadcastIf(ready) }
		}
		x := uint64(7)
		next := func(n int) int {
			x = x*6364136223846793005 + 1442695040888963407
			return int(x>>33) % n
		}
		for k := 0; k < 400; k++ {
			j, silent := next(workers+1), next(4) == 0
			e.Post(us(int64(next(60))), func() {
				work[j]++
				if !silent {
					wake()
				}
			})
		}
		e.Post(us(70), wake)
		e.RunAll()
		e.Shutdown()
		return l, did
	}
	herd, herdDid := run(false)
	filt, filtDid := run(true)
	if !slices.Equal(herd.events, filt.events) {
		t.Fatalf("event streams differ: %d vs %d entries", len(herd.events), len(filt.events))
	}
	if !slices.Equal(herdDid, filtDid) {
		t.Fatalf("procs acted differently:\nBroadcast:   %v\nBroadcastIf: %v", herdDid, filtDid)
	}
	if filt.switches >= herd.switches {
		t.Fatalf("BroadcastIf made %d proc switches, Broadcast %d", filt.switches, herd.switches)
	}
	t.Logf("%d events, %d actions; proc switches %d -> %d", len(herd.events)/2, len(herdDid), herd.switches, filt.switches)
}
