package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// streamLog records the event stream as one ordered list: "E <at> #<seq>"
// for an event and "S <at> <name>" for a switch. An event seen while a proc
// holds execution is a wake Sleep fired in place, and is tagged so; Run
// shows every queued event from engine context.
type streamLog struct {
	e       *Engine
	entries []string
}

func (l *streamLog) Event(at Time, seq uint64) {
	tag := ""
	if l.e.cur != nil {
		tag = " in place"
	}
	l.entries = append(l.entries, fmt.Sprintf("E %v #%d%s", at, seq, tag))
}

func (l *streamLog) ProcSwitch(at Time, p *Proc) {
	l.entries = append(l.entries, fmt.Sprintf("S %v %s", at, p.Name))
}

// TestSleepWakeInPlace pins each condition of the in-place wake. Every
// case runs a small world and checks the clock it ends at, the order of
// its side effects, and the tracer stream. A case that takes the queued
// path has no "in place" event, and its stream is the one the queued wake
// always produced; a case that takes the fast path has the same stream
// with the wake tagged.
func TestSleepWakeInPlace(t *testing.T) {
	type world struct {
		e    *Engine
		note func(what string) // records what happened, stamped with the clock
	}
	cases := []struct {
		name   string
		build  func(w world)
		run    func(w world) // nil: RunAll
		clock  Time
		notes  []string
		stream []string
	}{{
		name: "lone proc",
		build: func(w world) {
			w.e.Spawn("a", func(p *Proc) { p.Sleep(us(5)); w.note("a") })
		},
		clock:  5000,
		notes:  []string{"a@5.000us"},
		stream: []string{"E 0.000us #1", "S 0.000us a", "E 5.000us #2 in place", "S 5.000us a"},
	}, {
		name: "heap event at the wake fires first",
		build: func(w world) {
			w.e.Spawn("a", func(p *Proc) { p.Sleep(us(5)); w.note("a") })
			w.e.PostAt(5000, func() { w.note("event") })
		},
		clock:  5000,
		notes:  []string{"event@5.000us", "a@5.000us"},
		stream: []string{"E 0.000us #1", "S 0.000us a", "E 5.000us #2", "E 5.000us #3", "S 5.000us a"},
	}, {
		name: "heap event after the wake",
		build: func(w world) {
			w.e.Spawn("a", func(p *Proc) { p.Sleep(us(5)); w.note("a") })
			w.e.PostAt(6000, func() { w.note("event") })
		},
		clock:  6000,
		notes:  []string{"a@5.000us", "event@6.000us"},
		stream: []string{"E 0.000us #1", "S 0.000us a", "E 5.000us #3 in place", "S 5.000us a", "E 6.000us #2"},
	}, {
		name: "live current-instant entry",
		build: func(w world) {
			w.e.Spawn("a", func(p *Proc) {
				w.e.Post(0, func() { w.note("fifo") })
				p.Sleep(us(5))
				w.note("a")
			})
		},
		clock:  5000,
		notes:  []string{"fifo@0.000us", "a@5.000us"},
		stream: []string{"E 0.000us #1", "S 0.000us a", "E 0.000us #2", "E 5.000us #3", "S 5.000us a"},
	}, {
		name: "only canceled current-instant entries",
		build: func(w world) {
			w.e.Spawn("a", func(p *Proc) {
				w.e.Schedule(0, func() { w.note("canceled") }).Stop()
				p.Sleep(us(5))
				w.note(fmt.Sprintf("a fifo=%d", len(w.e.nowQ)))
			})
		},
		clock:  5000,
		notes:  []string{"a fifo=0@5.000us"},
		stream: []string{"E 0.000us #1", "S 0.000us a", "E 5.000us #3 in place", "S 5.000us a"},
	}, {
		name: "self-queued interrupt runs at the sleep",
		build: func(w world) {
			w.e.Spawn("a", func(p *Proc) {
				p.Interrupt(func(*Proc) { w.note("handler") })
				p.Sleep(us(5))
				w.note("a")
			})
		},
		clock:  5000,
		notes:  []string{"handler@5.000us", "a@5.000us"},
		stream: []string{"E 0.000us #1", "S 0.000us a", "E 5.000us #2", "S 5.000us a"},
	}, {
		name: "Run limit before the wake",
		build: func(w world) {
			w.e.Spawn("a", func(p *Proc) { p.Sleep(us(5)); w.note("a") })
		},
		run: func(w world) {
			w.e.Run(3000)
			w.note(fmt.Sprintf("limit queued=%d", w.e.QueueLen()))
			w.e.RunAll()
		},
		clock:  5000,
		notes:  []string{"limit queued=1@3.000us", "a@5.000us"},
		stream: []string{"E 0.000us #1", "S 0.000us a", "E 5.000us #2", "S 5.000us a"},
	}, {
		name: "Run limit at the wake",
		build: func(w world) {
			w.e.Spawn("a", func(p *Proc) { p.Sleep(us(5)); w.note("a") })
		},
		run:    func(w world) { w.e.Run(5000) },
		clock:  5000,
		notes:  []string{"a@5.000us"},
		stream: []string{"E 0.000us #1", "S 0.000us a", "E 5.000us #2 in place", "S 5.000us a"},
	}, {
		name: "halt then sleep",
		build: func(w world) {
			w.e.Spawn("a", func(p *Proc) {
				w.e.Halt()
				p.Sleep(us(5))
				w.note("a")
			})
		},
		run: func(w world) {
			w.e.RunAll()
			w.note("halted")
			w.e.RunAll()
		},
		clock:  5000,
		notes:  []string{"halted@0.000us", "a@5.000us"},
		stream: []string{"E 0.000us #1", "S 0.000us a", "E 5.000us #2", "S 5.000us a"},
	}, {
		// The cleanup's sleep parks, and the resumed park unwinds the
		// kill again: the code after the sleep never runs.
		name: "killed proc sleeping in its cleanup",
		build: func(w world) {
			c := NewCond(w.e)
			victim := w.e.Spawn("victim", func(p *Proc) {
				defer func() {
					w.note("cleanup")
					p.Sleep(us(5))
					w.note("after sleep")
				}()
				for {
					c.Wait(p)
				}
			})
			w.e.Spawn("killer", func(*Proc) { victim.Kill() })
		},
		clock: 5000,
		notes: []string{"cleanup@0.000us"},
		stream: []string{
			"E 0.000us #1", "S 0.000us victim", "E 0.000us #2", "S 0.000us killer",
			"E 0.000us #3", "S 0.000us victim", "E 5.000us #4", "S 5.000us victim",
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			log := &streamLog{e: e}
			e.AddTracer(log)
			var notes []string
			w := world{e: e, note: func(what string) {
				notes = append(notes, fmt.Sprintf("%s@%v", what, e.Now()))
			}}
			tc.build(w)
			if tc.run != nil {
				tc.run(w)
			} else {
				e.RunAll()
			}
			if e.Now() != tc.clock {
				t.Errorf("clock %v, want %v", e.Now(), tc.clock)
			}
			if !reflect.DeepEqual(notes, tc.notes) {
				t.Errorf("side effects %q, want %q", notes, tc.notes)
			}
			if !reflect.DeepEqual(log.entries, tc.stream) {
				t.Errorf("stream %q, want %q", log.entries, tc.stream)
			}
			e.Shutdown()
		})
	}
}

// TestSleepWakeInPlaceStream: a lone proc sleeping 1 µs and then 2 µs
// fires both wakes in place, and the stream is still the queued path's,
// worked out by hand: events (0, 1), (1 µs, 2) and (3 µs, 3), each followed
// by the switch to the proc. The digest folds that same stream, so it
// tells a 1-then-2 µs sleeper from a 2-then-1 µs one.
func TestSleepWakeInPlaceStream(t *testing.T) {
	run := func(first, second int64) (*Proc, *streamLog, *DigestTracer) {
		e := NewEngine()
		log, dt := &streamLog{e: e}, NewDigestTracer()
		e.AddTracer(log)
		e.AddTracer(dt)
		p := e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(us(first))
			p.Sleep(us(second))
		})
		e.RunAll()
		if e.EventsRun != 3 {
			t.Fatalf("EventsRun = %d, want 3", e.EventsRun)
		}
		return p, log, dt
	}
	p, log, dt := run(1, 2)
	want := []string{
		"E 0.000us #1", "S 0.000us sleeper",
		"E 1.000us #2 in place", "S 1.000us sleeper",
		"E 3.000us #3 in place", "S 3.000us sleeper",
	}
	if !reflect.DeepEqual(log.entries, want) {
		t.Fatalf("stream %q, want %q", log.entries, want)
	}
	hand := NewDigestTracer()
	for _, ev := range []struct {
		at  Time
		seq uint64
	}{{0, 1}, {1000, 2}, {3000, 3}} {
		hand.Event(ev.at, ev.seq)
		hand.ProcSwitch(ev.at, p)
	}
	if dt.Sum() != hand.Sum() || dt.Events != 3 || dt.Switches != 3 {
		t.Fatalf("digest %s (%d events, %d switches), want %s (3, 3)",
			DigestString(dt.Sum()), dt.Events, dt.Switches, DigestString(hand.Sum()))
	}
	if _, _, swapped := run(2, 1); swapped.Sum() == dt.Sum() {
		t.Fatal("sleeps of 1 then 2 µs and of 2 then 1 µs fold the same digest")
	}
}

// inPlaceCount counts the wakes Sleep fires in place: events a tracer
// sees while a proc holds execution.
type inPlaceCount struct {
	e *Engine
	n int
}

func (c *inPlaceCount) Event(Time, uint64) {
	if c.e.cur != nil {
		c.n++
	}
}
func (c *inPlaceCount) ProcSwitch(Time, *Proc) {}

// Sleep allocates nothing on either path once the event free list is
// warm. One sleeper alone takes the in-place path at every sleep; two in
// lockstep always find the other's wake first and queue every one.
func TestSleepAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		procs   int
		inPlace int // in-place wakes per round
	}{{"inplace", 1, 8}, {"queued", 2, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			count := &inPlaceCount{e: e}
			e.AddTracer(count)
			start := NewCond(e)
			for i := 0; i < tc.procs; i++ {
				e.Spawn(fmt.Sprint("sleeper", i), func(p *Proc) {
					for {
						start.Wait(p)
						for j := 0; j < 8; j++ {
							p.Sleep(us(1))
						}
					}
				})
			}
			e.RunAll() // park the sleepers on start
			round := func() {
				start.Broadcast()
				e.RunAll()
			}
			round() // warm the event free list and the waiter arrays
			if count.n != tc.inPlace {
				t.Fatalf("%d in-place wakes in a round, want %d", count.n, tc.inPlace)
			}
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Fatalf("%v allocs per round of sleeps, want 0", allocs)
			}
			e.Shutdown()
		})
	}
}
