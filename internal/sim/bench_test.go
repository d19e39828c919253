package sim

import (
	"fmt"
	"testing"
	"time"
)

// The event core's hot paths: schedule/fire churn through the heap and the
// same-time FIFO fast path, timer arm/cancel (the canceled-timer leak's
// stomping ground), and the proc handoff that every blocking primitive
// rides. Run with -benchmem; allocs/op should be ~0 for all of these once
// the free list warms up.

func BenchmarkEventChurn(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Post(time.Microsecond, fn)
		if i%1024 == 1023 {
			e.RunAll()
		}
	}
	e.RunAll()
}

// BenchmarkEventChurnDigested is EventChurn observed the way a traced,
// digested run is: two tracers attached, so every event walks the
// observer list. It must stay at 0 allocs/op like the bare churn.
func BenchmarkEventChurnDigested(b *testing.B) {
	e := NewEngine()
	e.AddTracer(NewDigestTracer())
	e.AddTracer(NewDigestTracer())
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Post(time.Microsecond, fn)
		if i%1024 == 1023 {
			e.RunAll()
		}
	}
	e.RunAll()
}

func BenchmarkEventChurnFIFO(b *testing.B) {
	// Fire-immediately events take the nowQ fast path: no heap at all.
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Post(0, fn)
		if i%1024 == 1023 {
			e.RunAll()
		}
	}
	e.RunAll()
}

func BenchmarkTimerArmCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.Schedule(time.Millisecond, fn)
		t.Stop()
	}
	if got := e.QueueLen(); got != 0 {
		b.Fatalf("canceled timers left %d events queued", got)
	}
}

func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine()
	t := e.Schedule(time.Millisecond, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(time.Millisecond)
	}
	t.Stop()
}

func BenchmarkProcPingPong(b *testing.B) {
	// Turn-taking through a shared flag: signals are only sent while the
	// peer is provably waiting, so none are lost.
	e := NewEngine()
	c := NewCond(e)
	n := b.N
	ball := 0 // 0: ping's turn, 1: pong's turn
	rallies := 0
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			for ball != 0 {
				c.Wait(p)
			}
			ball = 1
			c.Broadcast()
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for rallies < n {
			for ball != 1 {
				c.Wait(p)
			}
			ball = 0
			rallies++
			c.Broadcast()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
	b.StopTimer()
	if rallies != n {
		b.Fatalf("completed %d rallies, want %d", rallies, n)
	}
	e.Shutdown()
}

// BenchmarkProcSleep is one Sleep per op. inplace: the proc runs alone, so
// every wake fires in place with no queued event and no coroutine switch.
// queued: two procs sleep in lockstep, so each finds the other's wake
// first and parks on a queued one.
func BenchmarkProcSleep(b *testing.B) {
	for _, bc := range []struct {
		name  string
		procs int
	}{{"inplace", 1}, {"queued", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < bc.procs; i++ {
				n := (b.N + i) / bc.procs // the shares sum to b.N
				e.Spawn(fmt.Sprint("sleeper", i), func(p *Proc) {
					for j := 0; j < n; j++ {
						p.Sleep(time.Microsecond)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.RunAll()
			b.StopTimer()
			e.Shutdown()
		})
	}
}

// BenchmarkEventQueueMixed holds the queue at a steady depth with seeded
// random deltas of 1-1000 ns, and every eighth firing re-arms one of the
// depth/8 timers 10-10000 ns out, which removes it from the middle of its
// store. Depths 20 and 70 are the mean queue depths of the kv and mesh
// workloads. far adds kv-read's deadline shape to depth 20: every firing
// re-arms one of 16 timers 4 ms out, cancelling the one armed 16 firings
// before. sparse is depth 3, a paper-sweep ping-pong's. One op is one fired
// event.
func BenchmarkEventQueueMixed(b *testing.B) {
	for _, bc := range []struct {
		name  string
		depth int
		far   bool
	}{{"depth=20", 20, false}, {"depth=70", 70, false}, {"far", 20, true}, {"sparse", 3, false}} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine()
			x := uint64(bc.depth) // xorshift state
			delta := func() time.Duration {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return time.Duration(1 + x%1000)
			}
			timers := make([]*Timer, max(bc.depth/8, 1))
			for i := range timers {
				timers[i] = e.Schedule(10*delta(), func() {})
			}
			var deadlines []*Timer
			if bc.far {
				deadlines = make([]*Timer, 16)
				for i := range deadlines {
					deadlines[i] = e.Schedule(4*time.Millisecond, func() {})
				}
			}
			fired := 0
			var fn func()
			fn = func() {
				fired++
				if fired == b.N {
					e.Halt()
				}
				if fired%8 == 0 {
					timers[fired/8%len(timers)].Reset(10 * delta())
				}
				if deadlines != nil {
					deadlines[fired%len(deadlines)].Reset(4 * time.Millisecond)
				}
				e.Post(delta(), fn)
			}
			for i := len(timers); i < bc.depth; i++ {
				e.Post(delta(), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run(0)
		})
	}
}
