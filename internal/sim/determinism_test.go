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
	if d == NewDigestTracer().Sum() {
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

// sumOf feeds a fresh digest through steps and returns its sum.
func sumOf(steps ...func(d *DigestTracer)) uint64 {
	d := NewDigestTracer()
	for _, step := range steps {
		step(d)
	}
	return d.Sum()
}

func fired(at Time, seq uint64) func(*DigestTracer) {
	return func(d *DigestTracer) { d.Event(at, seq) }
}

func switchTo(at Time, name string) func(*DigestTracer) {
	p := &Proc{Name: name, nameHash: nameHash(name)}
	return func(d *DigestTracer) { d.ProcSwitch(at, p) }
}

// spawnOne runs an engine whose one proc is named name.
func spawnOne(name string) {
	e := NewEngine()
	e.Spawn(name, func(*Proc) {})
	e.RunAll()
}

// TestDigestFoldSeparates pins the divergences the word-wise fold must
// tell apart: each pair of streams differs in one way and must not sum
// alike.
func TestDigestFoldSeparates(t *testing.T) {
	const at, seq = Time(1234), uint64(5678)
	cases := []struct {
		name string
		a, b uint64
	}{
		{"adjacent events swapped",
			sumOf(fired(at, seq), fired(at, seq+1)),
			sumOf(fired(at, seq+1), fired(at, seq))},
		{"bit 62 of at",
			sumOf(fired(at, seq)),
			sumOf(fired(at^1<<62, seq))},
		{"bit 63 of seq",
			sumOf(fired(at, seq)),
			sumOf(fired(at, seq^1<<63))},
		{"proc renamed",
			sumOf(fired(at, seq), switchTo(at, "node0/nx-daemon")),
			sumOf(fired(at, seq), switchTo(at, "node0/nx-daemoN"))},
		{"proc renamed past the first word",
			sumOf(switchTo(at, "node12/socket-server")),
			sumOf(switchTo(at, "node12/socket-serve"))},
		{"spawned proc renamed",
			Digest(func() { spawnOne("worker") }),
			Digest(func() { spawnOne("workeR") })},
		{"event versus switch at one instant",
			sumOf(fired(at, 0)),
			sumOf(switchTo(at, ""))},
	}
	for _, c := range cases {
		if c.a == c.b {
			t.Errorf("%s: both streams digest to %s", c.name, DigestString(c.a))
		}
	}
}
