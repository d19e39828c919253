package sim

import (
	"reflect"
	"sync"
	"testing"
)

// A blocked proc pair trading a ball through Conds must not allocate once
// warm: every wait reuses the waiter and waitingOn arrays.
func TestCondPingPongAllocFree(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	idle := NewCond(e) // never signaled: pong's waits exercise removal from it
	ball, budget := 0, 0
	e.Spawn("ping", func(p *Proc) {
		for {
			for ball != 0 || budget == 0 {
				c.Wait(p)
			}
			ball = 1
			c.Broadcast()
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for {
			for ball != 1 {
				WaitAny(p, 0, c, idle)
			}
			ball = 0
			budget--
			c.Signal()
		}
	})
	rally := func() {
		budget = 10
		c.Broadcast()
		e.RunAll()
		if budget != 0 {
			t.Fatalf("rally stopped with %d exchanges left", budget)
		}
	}
	rally() // warm the event free list and the waiter arrays
	if allocs := testing.AllocsPerRun(100, rally); allocs != 0 {
		t.Fatalf("ping-pong rally: %v allocs, want 0", allocs)
	}
	e.Shutdown()
}

// Reusing the waiter array must keep Signal FIFO across Broadcasts and
// mid-queue removals.
func TestCondSignalFIFOAfterReuse(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var woke []string
	waiter := func(name string) func(*Proc) {
		return func(p *Proc) {
			for {
				c.Wait(p)
				woke = append(woke, name)
			}
		}
	}
	e.Spawn("a", waiter("a"))
	victim := e.Spawn("b", waiter("b"))
	e.Spawn("c", waiter("c"))
	e.Spawn("d", waiter("d"))
	e.RunAll()
	c.Broadcast() // all four wake and re-enqueue in spawn order
	e.RunAll()
	victim.Kill() // dequeue from the middle
	e.RunAll()
	for i := 0; i < 4; i++ {
		c.Signal()
		e.RunAll()
	}
	want := []string{"a", "b", "c", "d", "a", "c", "d", "a"}
	if !reflect.DeepEqual(woke, want) {
		t.Fatalf("wake order %v, want %v", woke, want)
	}
	e.Shutdown()
}

// A genuine panic in a proc body surfaces from Engine.Run on the caller's
// goroutine, carrying its original value.
func TestProcPanicPropagatesToRun(t *testing.T) {
	type boom struct{ code int }
	e := NewEngine()
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(us(1))
		panic(boom{7})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.RunAll()
	}()
	if got != (boom{7}) {
		t.Fatalf("recovered %#v from Run, want boom{7}", got)
	}
}

// A proc killed before its first dispatch never runs any of its body and
// is done afterwards. It runs on a reused coroutine here, which goes back
// to the idle list.
func TestKillBeforeFirstDispatch(t *testing.T) {
	cycleWorld() // at least one idle coroutine for the proc to take
	idle := len(idleCoros)
	e := NewEngine()
	ran := false
	p := e.Spawn("stillborn", func(*Proc) { ran = true })
	p.Kill()
	e.RunAll()
	if ran {
		t.Fatal("killed proc ran its body")
	}
	if !p.Done() {
		t.Fatal("killed proc not Done")
	}
	if got := e.Stalled(); len(got) != 0 {
		t.Fatalf("Stalled() = %v after kill", got)
	}
	if len(idleCoros) != idle {
		t.Fatalf("%d idle coroutines after the kill, want %d", len(idleCoros), idle)
	}
}

// An engine started on one goroutine can be run to completion on another.
// Meaningful under -race: the proc switches must publish state across the
// goroutine handoff.
func TestEngineRunsOnAnotherGoroutine(t *testing.T) {
	var (
		e      *Engine
		ticks  int
		waiter *Proc
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e = NewEngine()
		c := NewCond(e)
		waiter = e.Spawn("waiter", func(p *Proc) {
			c.Wait(p)
			ticks += 100
		})
		e.Spawn("ticker", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(us(1))
				ticks++
			}
			c.Signal()
		})
		e.Run(Time(us(1) / 2))
	}()
	wg.Wait()
	if ticks != 0 {
		t.Fatalf("the first half microsecond advanced the procs: ticks=%d", ticks)
	}
	if _, err := e.RunChecked(Time(1e6)); err != nil {
		t.Fatal(err)
	}
	if ticks != 105 || !waiter.Done() {
		t.Fatalf("ticks=%d waiter done=%v, want 105 and true", ticks, waiter.Done())
	}
}
