package sim

import (
	"fmt"
	"testing"
	"time"
)

// toyScenario builds a small engine with interacting procs and timers and
// runs it to completion.
func toyScenario() {
	e := NewEngine()
	c := NewCond(e)
	total := 0
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			for j := 0; j < 4; j++ {
				p.Sleep(time.Duration(i+1) * time.Microsecond)
				total += i
				c.Broadcast()
			}
		})
	}
	e.Spawn("watcher", func(p *Proc) {
		for total < 12 {
			c.Wait(p)
		}
	})
	e.Schedule(5*time.Microsecond, func() {})
	e.RunAll()
	e.Shutdown()
}

func TestCheckDeterminismPasses(t *testing.T) {
	CheckDeterminism(t, toyScenario)
}

func TestDigestObservesExecution(t *testing.T) {
	d := Digest(toyScenario)
	if d == 0 || d == fnvOffset64 {
		t.Fatalf("digest %#x looks like nothing was hashed", d)
	}
	if Digest(toyScenario) != d {
		t.Fatal("identical scenario produced different digests")
	}
}

func TestDigestDistinguishesSchedules(t *testing.T) {
	a := Digest(func() {
		e := NewEngine()
		e.Schedule(time.Microsecond, func() {})
		e.RunAll()
	})
	b := Digest(func() {
		e := NewEngine()
		e.Schedule(2*time.Microsecond, func() {})
		e.RunAll()
	})
	if a == b {
		t.Fatal("different event times hashed to the same digest")
	}
}

func TestDigestCoversMultipleEngines(t *testing.T) {
	one := Digest(func() {
		e := NewEngine()
		e.Schedule(time.Microsecond, func() {})
		e.RunAll()
	})
	two := Digest(func() {
		for i := 0; i < 2; i++ {
			e := NewEngine()
			e.Schedule(time.Microsecond, func() {})
			e.RunAll()
		}
	})
	if one == two {
		t.Fatal("a scenario building two engines digested the same as one")
	}
}

// fakeTB captures Fatalf so the divergence path can be exercised.
type fakeTB struct {
	failed bool
	msg    string
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Fatalf(format string, args ...any) {
	f.failed = true
	f.msg = fmt.Sprintf(format, args...)
}

func TestCheckDeterminismCatchesDivergence(t *testing.T) {
	// A scenario whose schedule depends on state carried across runs —
	// exactly the kind of leak the harness exists to catch.
	skew := time.Microsecond
	f := &fakeTB{}
	CheckDeterminism(f, func() {
		e := NewEngine()
		e.Schedule(skew, func() {})
		skew += time.Microsecond
		e.RunAll()
	})
	if !f.failed {
		t.Fatal("divergent scenario was not reported")
	}
	if f.msg == "" {
		t.Fatal("divergence failure carried no message")
	}
}

func TestDigestRestoresTracerHook(t *testing.T) {
	Digest(func() {})
	if autoTracer != nil {
		t.Fatal("Digest left the auto-tracer installed")
	}
	// Engines created outside a Digest call must not be observed.
	e := NewEngine()
	if len(e.tracers) != 0 {
		t.Fatal("engine created outside Digest got an auto tracer")
	}
}

// TestDigestWithUserTracer is the regression test for tracer exclusivity:
// a tracer added to an engine must keep observing execution while
// sim.Digest runs the scenario, and the digest must still be stable.
func TestDigestWithUserTracer(t *testing.T) {
	var observed int64
	scenario := func() {
		eng := NewEngine()
		dt := NewDigestTracer()
		eng.AddTracer(dt)
		eng.Spawn("worker", func(p *Proc) {
			p.Sleep(5 * time.Microsecond)
		})
		eng.RunAll()
		observed = dt.Events
	}
	first := Digest(scenario)
	second := Digest(scenario)
	if first != second {
		t.Fatalf("digest diverged with user tracer installed: %#x vs %#x", first, second)
	}
	if observed == 0 {
		t.Fatal("user tracer observed no events during Digest: it was displaced by the auto tracer")
	}
}
