package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// Watchdog tests: Stalled/RunChecked diagnose lost-wakeup deadlocks and
// livelocks by name, service procs are exempt, and Kill unwinds a parked
// proc without running another instruction of its body.

func TestStalledNamesParkedProcs(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("victim", func(p *Proc) { c.Wait(p) }) // nobody ever signals
	e.Spawn("fine", func(p *Proc) { p.Sleep(time.Microsecond) })
	e.RunAll()
	got := e.Stalled()
	if len(got) != 1 || got[0] != "victim" {
		t.Fatalf("Stalled() = %v, want [victim]", got)
	}
}

func TestServiceProcsExempt(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("daemon", func(p *Proc) {
		p.MarkService()
		c.Wait(p)
	})
	e.RunAll()
	if got := e.Stalled(); len(got) != 0 {
		t.Fatalf("Stalled() = %v, service proc not exempt", got)
	}
}

func TestRunCheckedDiagnosesDeadlock(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("reader", func(p *Proc) { c.Wait(p) })
	_, err := e.RunChecked(Time(0).Add(time.Second))
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("RunChecked = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "reader" {
		t.Fatalf("Blocked = %v", dl.Blocked)
	}
	if !strings.Contains(dl.Error(), "reader") {
		t.Fatalf("Error() = %q does not name the proc", dl.Error())
	}
}

func TestRunCheckedDiagnosesBudgetOverrun(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.Schedule(time.Millisecond, tick) } // runs forever
	e.Schedule(0, tick)
	_, err := e.RunChecked(Time(0).Add(10 * time.Millisecond))
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("RunChecked = %v, want DeadlockError", err)
	}
	if !strings.Contains(dl.Reason, "budget") {
		t.Fatalf("Reason = %q", dl.Reason)
	}
}

func TestRunCheckedCleanRun(t *testing.T) {
	e := NewEngine()
	done := false
	e.Spawn("worker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		done = true
	})
	if _, err := e.RunChecked(Time(0).Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("worker never ran")
	}
}

func TestKillUnwindsParkedProc(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	resumed := false
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) {
		c.Wait(p)
		resumed = true // must never run: the proc dies parked
	})
	e.Schedule(time.Millisecond, func() { victim.Kill() })
	e.RunAll()
	if resumed {
		t.Fatal("killed proc executed past its wait")
	}
	if got := e.Stalled(); len(got) != 0 {
		t.Fatalf("Stalled() = %v after kill", got)
	}
	victim.Kill() // idempotent
}

func TestKillIsolatesCondWaiters(t *testing.T) {
	// Killing one waiter must not eat a signal another waiter needs.
	e := NewEngine()
	c := NewCond(e)
	survived := false
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) { c.Wait(p) })
	e.Spawn("survivor", func(p *Proc) {
		c.Wait(p)
		survived = true
	})
	e.Schedule(time.Millisecond, func() {
		victim.Kill()
		c.Broadcast()
	})
	e.RunAll()
	if !survived {
		t.Fatal("survivor lost its wakeup when the victim was killed")
	}
}

func TestWaitAnyTimeoutTimesOut(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var timedOut bool
	var woke Time
	e.Spawn("waiter", func(p *Proc) {
		timedOut = WaitAny(p, 5*time.Millisecond, c)
		woke = p.Now()
	})
	e.RunAll()
	if !timedOut {
		t.Fatal("unsignaled wait did not time out")
	}
	if woke != Time(0).Add(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
}

func TestWaitAnyTimeoutSignaled(t *testing.T) {
	e := NewEngine()
	a, b := NewCond(e), NewCond(e)
	var timedOut bool
	e.Spawn("waiter", func(p *Proc) {
		timedOut = WaitAny(p, time.Second, a, b)
	})
	e.Schedule(time.Millisecond, func() { b.Broadcast() })
	e.RunAll()
	if timedOut {
		t.Fatal("signaled wait reported a timeout")
	}
	if now := e.Now(); now >= Time(0).Add(time.Second) {
		t.Fatalf("waited out the full deadline (now %v) despite the signal", now)
	}
}
