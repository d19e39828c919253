package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func us(n int64) time.Duration { return time.Duration(n) * time.Microsecond }

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(us(30), func() { order = append(order, 3) })
	e.Schedule(us(10), func() { order = append(order, 1) })
	e.Schedule(us(20), func() { order = append(order, 2) })
	e.RunAll()
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Fatalf("order = %v", order)
	}
	if got := e.Now(); got != Time(30*1000) {
		t.Fatalf("final time = %v", got)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(us(5), func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []string
	e.Schedule(us(10), func() {
		hits = append(hits, "a")
		e.Schedule(us(5), func() { hits = append(hits, "c") })
		e.Schedule(0, func() { hits = append(hits, "b") })
	})
	e.RunAll()
	if !reflect.DeepEqual(hits, []string{"a", "b", "c"}) {
		t.Fatalf("hits = %v", hits)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.Schedule(us(10), func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.RunAll()
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(us(10), func() { fired = append(fired, 1) })
	e.Schedule(us(30), func() { fired = append(fired, 2) })
	e.Run(Time(20 * 1000))
	if !reflect.DeepEqual(fired, []int{1}) {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != Time(20*1000) {
		t.Fatalf("clock should rest at limit, got %v", e.Now())
	}
	e.RunAll()
	if !reflect.DeepEqual(fired, []int{1, 2}) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(us(1), func() { n++; e.Halt() })
	e.Schedule(us(2), func() { n++ })
	e.RunAll()
	if n != 1 {
		t.Fatalf("halt did not stop the loop, n=%d", n)
	}
	e.RunAll() // resumes
	if n != 2 {
		t.Fatalf("run after halt did not continue, n=%d", n)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var stamps []Time
	e.Spawn("sleeper", func(p *Proc) {
		stamps = append(stamps, p.Now())
		p.Sleep(us(7))
		stamps = append(stamps, p.Now())
		p.Sleep(us(3))
		stamps = append(stamps, p.Now())
	})
	e.RunAll()
	want := []Time{0, 7000, 10000}
	if !reflect.DeepEqual(stamps, want) {
		t.Fatalf("stamps = %v, want %v", stamps, want)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			trace = append(trace, fmt.Sprintf("a%d@%d", i, p.Now()))
			p.Sleep(us(10))
		}
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(us(5))
		for i := 0; i < 3; i++ {
			trace = append(trace, fmt.Sprintf("b%d@%d", i, p.Now()))
			p.Sleep(us(10))
		}
	})
	e.RunAll()
	want := []string{"a0@0", "b0@5000", "a1@10000", "b1@15000", "a2@20000", "b2@25000"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v", trace)
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	ready := 0
	var woke []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			for ready == 0 {
				c.Wait(p)
			}
			woke = append(woke, name)
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(us(10))
		ready = 1
		c.Broadcast()
	})
	e.RunAll()
	if !reflect.DeepEqual(woke, []string{"w1", "w2", "w3"}) {
		t.Fatalf("woke = %v", woke)
	}
	if e.Now() != Time(10000) {
		t.Fatalf("broadcast wakeups should be same-instant, now=%v", e.Now())
	}
}

func TestCondWaitTimeout(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var timedOut, signaled bool
	e.Spawn("t", func(p *Proc) {
		timedOut = WaitAny(p, us(5), c)
	})
	e.Spawn("s", func(p *Proc) {
		got := WaitAny(p, us(100), c)
		signaled = !got
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(us(20))
		c.Broadcast()
	})
	e.RunAll()
	if !timedOut {
		t.Fatal("first waiter should time out")
	}
	if !signaled {
		t.Fatal("second waiter should be signaled before timeout")
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	e.Spawn("s", func(p *Proc) {
		p.Sleep(us(1))
		c.Signal()
	})
	e.Run(Time(1e6))
	if woken != 1 {
		t.Fatalf("Signal woke %d procs, want 1", woken)
	}
}

func TestInterruptWhileBlocked(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var trace []string
	target := e.Spawn("target", func(p *Proc) {
		flag := false
		for !flag {
			c.Wait(p)
			trace = append(trace, fmt.Sprintf("wake@%d", p.Now()))
			flag = true // handler ran by now; just exit after one wake
		}
		trace = append(trace, "exit")
	})
	e.Spawn("irq", func(p *Proc) {
		p.Sleep(us(10))
		target.Interrupt(func(tp *Proc) { trace = append(trace, "handler") })
	})
	e.RunAll()
	want := []string{"handler", fmt.Sprintf("wake@%d", 10000), "exit"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestServerFIFO(t *testing.T) {
	e := NewEngine()
	s := MakeServer(e)
	st1, en1 := s.Reserve(us(10))
	st2, en2 := s.Reserve(us(5))
	if st1 != 0 || en1 != Time(10000) {
		t.Fatalf("first reservation [%v,%v)", st1, en1)
	}
	if st2 != Time(10000) || en2 != Time(15000) {
		t.Fatalf("second reservation should queue: [%v,%v)", st2, en2)
	}
	if s.Busy != us(15) {
		t.Fatalf("busy = %v", s.Busy)
	}
}

func TestServerIdleGap(t *testing.T) {
	e := NewEngine()
	s := MakeServer(e)
	s.Reserve(us(10))
	st, _ := s.ReserveAt(Time(50*1000), us(10))
	if st != Time(50*1000) {
		t.Fatalf("reservation after idle gap should start on request: %v", st)
	}
}

// TestDeterminism runs a randomized workload twice with the same seed and
// requires identical traces — the engine must be a pure function of its
// inputs.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		c := NewCond(e)
		var trace []string
		counter := 0
		for i := 0; i < 8; i++ {
			i := i
			delays := make([]time.Duration, 20)
			for j := range delays {
				delays[j] = time.Duration(rng.Intn(50)) * time.Microsecond
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for _, d := range delays {
					p.Sleep(d)
					counter++
					trace = append(trace, fmt.Sprintf("p%d@%d=%d", i, p.Now(), counter))
					if counter%7 == 0 {
						c.Broadcast()
					} else if counter%11 == 0 {
						WaitAny(p, us(30), c)
					}
				}
			})
		}
		e.RunAll()
		return trace
	}
	a := run(42)
	b := run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different traces")
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds suspiciously produced identical traces")
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the clock never moves backwards.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			e.Schedule(time.Duration(r)*time.Nanosecond, func() {
				fired = append(fired, e.Now())
			})
		}
		e.RunAll()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: server reservations never overlap and preserve request order.
func TestServerProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		e := NewEngine()
		s := MakeServer(e)
		var lastEnd Time
		for _, d := range durs {
			st, en := s.Reserve(time.Duration(d) * time.Nanosecond)
			if st < lastEnd || en < st {
				return false
			}
			lastEnd = en
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProcPanicsOutsideContext(t *testing.T) {
	e := NewEngine()
	var p1 *Proc
	p1 = e.Spawn("p1", func(p *Proc) { p.Sleep(us(100)) })
	e.Spawn("p2", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("using another proc's Sleep should panic")
			}
		}()
		p1.Sleep(us(1))
	})
	e.RunAll()
}

// TestTracers: every tracer added to an engine observes every event and
// process switch, and adding one twice does not double its view.
func TestTracers(t *testing.T) {
	e := NewEngine()
	a, b := NewDigestTracer(), NewDigestTracer()
	e.AddTracer(a)
	e.AddTracer(b)
	e.AddTracer(a)
	e.Spawn("worker", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(us(10))
		}
	})
	e.RunAll()
	if a.Events != e.EventsRun || a.Switches < 4 {
		t.Fatalf("tracer saw events=%d switches=%d, engine ran %d events", a.Events, a.Switches, e.EventsRun)
	}
	if b.Events != a.Events || b.Switches != a.Switches || b.Sum() != a.Sum() {
		t.Fatalf("second tracer saw events=%d switches=%d, first events=%d switches=%d",
			b.Events, b.Switches, a.Events, a.Switches)
	}
}

// Shutdown unwinds every parked proc: each one's coroutine goes idle for a
// later Spawn or, with the idle list full, finishes. Either way no
// goroutine stays bound to the shut-down world, so the goroutines beyond
// the idle list return to their baseline.
func TestShutdownReleasesGoroutines(t *testing.T) {
	before := settleBusy(busyGoroutines())
	e := NewEngine()
	c := NewCond(e)
	for i := 0; i < 20; i++ {
		e.Spawn("blocked", func(p *Proc) {
			for {
				c.Wait(p) // parked forever
			}
		})
	}
	e.RunAll()
	if peak := busyGoroutines(); peak < before+20 {
		t.Fatalf("%d busy goroutines with 20 procs parked, baseline %d", peak, before)
	}
	e.Shutdown()
	// Other tests' leftovers make absolute counts noisy; the busy count
	// falling back to the baseline is what matters.
	if after := settleBusy(before); after > before {
		t.Fatalf("goroutines not released: %d busy after shutdown, baseline %d", after, before)
	}
	// Shutdown on an already-drained engine is a no-op.
	e.Shutdown()
}

// TestShutdownCutsOffParkingCleanup: a proc unwound by Shutdown whose
// deferred cleanup parks again (a Sleep, a Cond wait) runs that cleanup in
// its own context, is cut off where it parks, and ends dead; Shutdown
// returns normally and shows tracers no switch.
func TestShutdownCutsOffParkingCleanup(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var steps []string
	sleeper := e.Spawn("p", func(p *Proc) {
		defer func() {
			steps = append(steps, "p cleanup")
			p.Sleep(time.Microsecond)
			steps = append(steps, "p after sleep")
		}()
		c.Wait(p)
	})
	waiter := e.Spawn("q", func(p *Proc) {
		defer func() {
			steps = append(steps, "q cleanup")
			for {
				c.Wait(p)
			}
		}()
		c.Wait(p)
	})
	e.RunAll()
	log := &streamLog{e: e}
	e.AddTracer(log)
	e.Shutdown()
	if !sleeper.dead || !waiter.dead {
		t.Fatalf("procs not dead after Shutdown: p %v, q %v", sleeper.dead, waiter.dead)
	}
	if want := []string{"p cleanup", "q cleanup"}; !reflect.DeepEqual(steps, want) {
		t.Errorf("cleanup steps %q, want %q", steps, want)
	}
	if e.cur != nil {
		t.Error("Shutdown left a current proc")
	}
	if len(log.entries) != 0 {
		t.Errorf("Shutdown traced %q", log.entries)
	}
}
