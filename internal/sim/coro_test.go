package sim

import (
	"runtime"
	"testing"
	"time"
)

// busyGoroutines counts the goroutines beyond the idle coroutine list: the
// test's own and every proc coroutine still bound to a proc.
func busyGoroutines() int { return runtime.NumGoroutine() - len(idleCoros) }

// settleBusy waits for goroutines other tests left finishing to exit, and
// reports the busy count once it is at most want (or the last count seen).
func settleBusy(want int) int {
	got := busyGoroutines()
	for i := 0; i < 200 && got > want; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond) //lint:allow no-wallclock waiting for the host scheduler to finish exiting goroutines, not virtual-time code
		got = busyGoroutines()
	}
	return got
}

// cycleWorld boots one engine with a sleeper, a proc that exits at once
// and a proc parked forever, runs it and shuts it down, reporting the
// goroutine count seen while all three procs were live.
func cycleWorld() (peak int) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(us(1))
		peak = runtime.NumGoroutine()
	})
	e.Spawn("quick", func(*Proc) {})
	e.Spawn("parked", func(p *Proc) {
		for {
			c.Wait(p)
		}
	})
	e.RunAll()
	e.Shutdown()
	return peak
}

// Once the idle list holds a world's worth of coroutines, booting and
// shutting down world after world starts no goroutine: every Spawn binds
// an idle coroutine.
func TestSpawnExitStartsNoGoroutineWhenWarm(t *testing.T) {
	cycleWorld()
	warm := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		if peak := cycleWorld(); peak > warm {
			t.Fatalf("engine %d: %d goroutines while its procs ran, %d when warm", i, peak, warm)
		}
	}
	if got := runtime.NumGoroutine(); got > warm {
		t.Fatalf("%d goroutines after 100 engines, %d when warm", got, warm)
	}
}

// A dead proc's handle cannot reach its coroutine once a later proc has it:
// dispatching, waking or killing the stale handle leaves the new proc
// parked where it was, and the dead proc holds neither next nor yield.
func TestDeadProcCannotResumeReusedCoroutine(t *testing.T) {
	old := NewEngine()
	stale := old.Spawn("old", func(*Proc) {})
	old.RunAll()
	if stale.next != nil || stale.yield != nil {
		t.Fatal("exited proc still holds its coroutine's next or yield")
	}
	idle := len(idleCoros)
	if idle == 0 {
		t.Fatal("exited proc's coroutine not idle")
	}

	e := NewEngine()
	c := NewCond(e)
	steps := 0
	fresh := e.Spawn("new", func(p *Proc) {
		steps++
		c.Wait(p)
		steps++
	})
	if len(idleCoros) != idle-1 {
		t.Fatalf("Spawn left %d idle coroutines, want %d", len(idleCoros), idle-1)
	}
	e.RunAll()
	old.dispatch(stale)
	stale.unpark()
	stale.Kill()
	old.RunAll()
	old.Shutdown()
	if steps != 1 || fresh.Done() {
		t.Fatalf("stale handle resumed the reused coroutine: steps=%d done=%v", steps, fresh.Done())
	}
	c.Signal()
	e.RunAll()
	if steps != 2 || !fresh.Done() {
		t.Fatalf("new proc did not finish: steps=%d done=%v", steps, fresh.Done())
	}
}

// A genuine panic finishes its coroutine instead of idling it, and still
// surfaces from Run with its value.
func TestPanickingBodyCoroutineNotIdled(t *testing.T) {
	cycleWorld() // at least one idle coroutine for the bomb to take
	before := busyGoroutines()
	idle := len(idleCoros)
	e := NewEngine()
	bomb := e.Spawn("bomb", func(p *Proc) {
		p.Sleep(us(1))
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.RunAll()
	}()
	if got != "boom" {
		t.Fatalf("recovered %#v from Run, want \"boom\"", got)
	}
	if len(idleCoros) != idle-1 {
		t.Fatalf("%d idle coroutines after the panic, want %d: the panicking one was idled", len(idleCoros), idle-1)
	}
	if !bomb.dead || bomb.next != nil {
		t.Fatal("panicked proc not dead, or still holds next")
	}
	if after := settleBusy(before); after > before {
		t.Fatalf("panicked coroutine's goroutine still running: %d busy, %d before", after, before)
	}
}

// The idle list never grows past maxIdleCoros: a coroutine whose proc exits
// with the list full finishes, and its goroutine exits with it.
func TestIdleListCapHolds(t *testing.T) {
	before := settleBusy(busyGoroutines())
	e := NewEngine()
	c := NewCond(e)
	const extra = 20
	for i := 0; i < maxIdleCoros+extra; i++ {
		e.Spawn("parked", func(p *Proc) {
			for {
				c.Wait(p)
			}
		})
	}
	e.RunAll()
	if len(idleCoros) != 0 {
		t.Fatalf("%d idle coroutines with %d procs parked", len(idleCoros), maxIdleCoros+extra)
	}
	e.Shutdown()
	if len(idleCoros) != maxIdleCoros {
		t.Fatalf("%d idle coroutines after Shutdown, want the cap %d", len(idleCoros), maxIdleCoros)
	}
	if after := settleBusy(before); after > before {
		t.Fatalf("%d busy goroutines after Shutdown, %d before", after, before)
	}
}

// BenchmarkSpawnExit boots an engine, runs one proc that grows its stack
// to about 16 KB (a library call chain's depth) and exits, and drops the
// engine: the per-proc cost a freshly booted world pays for each proc.
func BenchmarkSpawnExit(b *testing.B) {
	body := func(p *Proc) { stackSink += deepFrames(16) }
	cycle := func() {
		e := NewEngine()
		e.Spawn("p", body)
		e.RunAll()
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

var stackSink int

// deepFrames recurses n frames of about 1 KB each.
//
//go:noinline
func deepFrames(n int) int {
	var pad [1 << 10]byte
	pad[n%len(pad)] = byte(n)
	if n == 0 {
		return int(pad[0])
	}
	return deepFrames(n-1) + int(pad[n%len(pad)])
}
