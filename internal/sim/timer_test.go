package sim

import (
	"testing"
	"time"
)

// Timer edge cases: the Stop/Pending/Reset contract around firing,
// cancellation, and re-arming.

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.Schedule(time.Microsecond, func() { fired++ })
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if tm.Stop() {
		t.Fatal("Stop after fire reported the timer as still pending")
	}
	if tm.Pending() {
		t.Fatal("Pending true after the timer fired")
	}
}

func TestTimerDoubleStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.Schedule(time.Microsecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report the timer was pending")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report the timer was already stopped")
	}
	e.RunAll()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopSelfInsideCallback(t *testing.T) {
	// By the time the callback runs, the event has been popped from the
	// heap; stopping "yourself" must be a harmless no-op.
	e := NewEngine()
	var tm *Timer
	stopped := true
	tm = e.Schedule(time.Microsecond, func() { stopped = tm.Stop() })
	e.RunAll()
	if stopped {
		t.Fatal("Stop from inside the firing callback reported pending")
	}
}

func TestTimerStopPeerInsideCallback(t *testing.T) {
	// An event scheduled at the same instant can cancel a later one: the
	// victim is still in the heap when the first callback runs.
	e := NewEngine()
	victimRan := false
	victim := e.Schedule(time.Microsecond, func() { victimRan = true })
	canceled := false
	e.Post(time.Microsecond, func() {}) // unrelated, same instant
	e.Schedule(0, func() { canceled = victim.Stop() })
	e.RunAll()
	if !canceled {
		t.Fatal("Stop on a queued peer event reported not pending")
	}
	if victimRan {
		t.Fatal("canceled event still ran")
	}
}

func TestTimerResetWhilePending(t *testing.T) {
	e := NewEngine()
	var firedAt []Time
	// The callback is shared across re-arms.
	tm := e.Schedule(100*time.Microsecond, func() { firedAt = append(firedAt, e.Now()) })
	if !tm.Reset(200 * time.Microsecond) {
		t.Fatal("Reset of a pending timer should report it was pending")
	}
	if !tm.Pending() {
		t.Fatal("re-armed timer should be pending")
	}
	e.RunAll()
	if len(firedAt) != 1 || firedAt[0] != Time(200*1000) {
		t.Fatalf("re-armed timer fired at %v, want exactly once at 200us", firedAt)
	}
}

func TestTimerResetAfterFire(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.Schedule(time.Microsecond, func() { fired++ })
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	if tm.Reset(time.Microsecond) {
		t.Fatal("Reset after fire should report not pending")
	}
	if !tm.Pending() {
		t.Fatal("timer should be pending again after Reset")
	}
	e.RunAll()
	if fired != 2 {
		t.Fatalf("re-armed timer: fired %d, want 2", fired)
	}
}

func TestTimerResetAfterStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.Schedule(time.Microsecond, func() { fired++ })
	tm.Stop()
	if tm.Reset(2 * time.Microsecond) {
		t.Fatal("Reset after Stop should report not pending")
	}
	if !tm.Pending() {
		t.Fatal("Reset after Stop should re-arm the timer")
	}
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
}

func TestTimerResetAfterShutdown(t *testing.T) {
	// A timer surviving Engine.Shutdown must neither panic nor wedge when
	// reset; the re-armed event simply sits in the queue of a spent
	// engine.
	e := NewEngine()
	e.Spawn("daemon", func(p *Proc) { p.Sleep(time.Hour) }).MarkService()
	tm := e.Schedule(time.Microsecond, func() {})
	e.Run(Time(100)) // less than 1us: nothing fires
	tm.Stop()
	e.Shutdown()
	if tm.Reset(time.Microsecond) {
		t.Fatal("Reset after Shutdown of a stopped timer reported pending")
	}
	if !tm.Pending() {
		t.Fatal("Reset after Shutdown should still re-arm")
	}
}

func TestTimerResetZeroAndSpentHandles(t *testing.T) {
	// The hardening contract: handles with no engine or no callback are
	// inert — Reset reports false instead of dereferencing nil.
	var nilTimer *Timer
	if nilTimer.Reset(time.Microsecond) {
		t.Fatal("nil timer Reset reported pending")
	}
	var zero Timer
	if zero.Reset(time.Microsecond) {
		t.Fatal("zero timer Reset reported pending")
	}
	if zero.Pending() {
		t.Fatal("zero timer pending after Reset")
	}
	e := NewEngine()
	nilFn := e.Schedule(time.Microsecond, nil)
	nilFn.Stop()
	if nilFn.Reset(time.Microsecond) || nilFn.Pending() {
		t.Fatal("nil-callback timer must stay inert on Reset")
	}
	e.RunAll()
}

func TestTimerPendingLifecycle(t *testing.T) {
	e := NewEngine()
	tm := e.Schedule(time.Microsecond, func() {})
	if !tm.Pending() {
		t.Fatal("fresh timer should be pending")
	}
	tm.Stop()
	if tm.Pending() {
		t.Fatal("stopped timer should not be pending")
	}
	tm.Reset(time.Microsecond)
	if !tm.Pending() {
		t.Fatal("re-armed timer should be pending")
	}
	e.RunAll()
	if tm.Pending() {
		t.Fatal("fired timer should not be pending")
	}
	var nilTimer *Timer
	if nilTimer.Pending() {
		t.Fatal("nil timer should not be pending")
	}
}

// A negative Reset panics as Schedule does, and before it touches the
// timer: the pending event survives the recovered panic and still fires.
func TestTimerResetNegativeLeavesTimer(t *testing.T) {
	e := NewEngine()
	fired := Time(-1)
	tm := e.Schedule(us(5), func() { fired = e.Now() })
	func() {
		defer func() {
			if r := recover(); r != "sim: negative delay" {
				t.Fatalf("Reset(-1) panicked with %v, want \"sim: negative delay\"", r)
			}
		}()
		tm.Reset(-1)
	}()
	if !tm.Pending() {
		t.Fatal("timer no longer pending after the recovered panic")
	}
	e.RunAll()
	if fired != Time(5000) {
		t.Fatalf("timer fired at %v, want 5.000us", fired)
	}
}
