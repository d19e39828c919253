package mem

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// recorder is a write observer that logs each fragment it is told of,
// with the frame's bytes at that moment.
type recorder struct {
	m    *Memory
	f    PFN
	seen []string
}

func (r *recorder) observe(off, n int) {
	r.seen = append(r.seen, fmt.Sprintf("%d+%d %x", off, n, read(r.m, r.f.Base()+PA(off), n)))
}

// A write spanning two frames tells each frame's observer its own
// page-relative fragment, once the bytes are in place, for a DMA write and
// for a CPU store presented to the snoop alike.
func TestObserverPageRelativeFragments(t *testing.T) {
	for name, store := range map[string]func(*Memory, PA, []byte){
		"dma": func(m *Memory, pa PA, b []byte) { m.Write(pa, b) },
		"cpu": cpuStore,
	} {
		m := New(sim.NewEngine(), 4*hw.Page)
		m.SetSnoop(func(PA, int32, []byte) {})
		m.SetSnooped(1, 7)
		m.SetSnooped(2, 7)
		a, b := &recorder{m: m, f: 1}, &recorder{m: m, f: 2}
		m.Observe(1, a.observe)
		m.Observe(2, b.observe)
		store(m, PA(2*hw.Page-3), []byte{1, 2, 3, 4, 5})
		if want := []string{fmt.Sprintf("%d+3 010203", hw.Page-3)}; !slices.Equal(a.seen, want) {
			t.Errorf("%s: frame 1 observer saw %q, want %q", name, a.seen, want)
		}
		if want := []string{"0+2 0405"}; !slices.Equal(b.seen, want) {
			t.Errorf("%s: frame 2 observer saw %q, want %q", name, b.seen, want)
		}
	}
}

// An observer runs before the frame's watchers are woken: a proc parked on
// a cond the observer signals runs before one parked on the page's cond.
func TestObserverRunsBeforePageWatchers(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 2*hw.Page)
	mine := sim.NewCond(e)
	m.Observe(1, func(int, int) { mine.Broadcast() })
	var order []string
	e.Spawn("page", func(p *sim.Proc) {
		m.PageCond(1).Wait(p)
		order = append(order, "page")
	})
	e.Spawn("observer", func(p *sim.Proc) {
		mine.Wait(p)
		order = append(order, "observer")
	})
	e.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(1)
		m.Write(hw.Page+8, []byte{1})
	})
	e.RunAll()
	if want := []string{"observer", "page"}; !slices.Equal(order, want) {
		t.Fatalf("woke in order %q, want %q", order, want)
	}
}

// A write to an unobserved frame calls no observer, in a memory that has
// observers and in one that has none, and allocates nothing.
func TestUnobservedFrameCallsNothing(t *testing.T) {
	m := New(sim.NewEngine(), 4*hw.Page)
	calls := 0
	m.Observe(0, func(int, int) { calls++ })
	m.Write(hw.Page, bytes.Repeat([]byte{9}, 2*hw.Page))
	if calls != 0 {
		t.Fatalf("observer of frame 0 called %d times for a write to frames 1-2", calls)
	}
	bare := New(sim.NewEngine(), 4*hw.Page)
	word := []byte{1, 2, 3, 4}
	for _, mm := range []*Memory{m, bare} {
		mm.Write(hw.Page, word)
		if a := testing.AllocsPerRun(100, func() { mm.Write(hw.Page, word) }); a != 0 {
			t.Errorf("%v allocs per write to an unobserved frame", a)
		}
	}
}

// An observer installed on a frame that was never written fires on the
// write that materializes it.
func TestObserverBeforeFrameMaterializes(t *testing.T) {
	m := New(sim.NewEngine(), 4*hw.Page)
	r := &recorder{m: m, f: 3}
	m.Observe(3, r.observe)
	m.Write(3*hw.Page+100, []byte{0xab})
	if want := []string{"100+1 ab"}; !slices.Equal(r.seen, want) {
		t.Fatalf("observer saw %q, want %q", r.seen, want)
	}
}

// Release drops every observer: the released memory keeps none, and a
// memory that takes over its frames calls none of them.
func TestReleaseDropsObservers(t *testing.T) {
	freeFrames = nil
	m := New(sim.NewEngine(), 4*hw.Page)
	calls := 0
	for f := PFN(0); f < 4; f++ {
		m.Observe(f, func(int, int) { calls++ })
	}
	m.Write(0, bytes.Repeat([]byte{1}, 4*hw.Page))
	if calls != 4 {
		t.Fatalf("%d observer calls for a write over 4 observed frames", calls)
	}
	m.Release()
	if m.nobs != 0 || m.observers.Get(0) != nil {
		t.Fatalf("released memory keeps %d observers", m.nobs)
	}
	next := New(sim.NewEngine(), 4*hw.Page)
	next.Write(0, bytes.Repeat([]byte{2}, 4*hw.Page))
	if calls != 4 {
		t.Fatalf("a released memory's observers fired %d times in its successor", calls-4)
	}
}

// Unobserve drops one frame's observer and leaves the others; dropping the
// last one leaves a memory that never reads the observer table again.
func TestUnobserveDropsOneObserver(t *testing.T) {
	m := New(sim.NewEngine(), 4*hw.Page)
	calls := [2]int{}
	m.Observe(0, func(int, int) { calls[0]++ })
	m.Observe(1, func(int, int) { calls[1]++ })
	m.Unobserve(0)
	m.Unobserve(0)
	m.Unobserve(3)
	m.Write(0, bytes.Repeat([]byte{1}, 2*hw.Page))
	if calls != [2]int{0, 1} || m.nobs != 1 {
		t.Fatalf("after dropping frame 0: calls %v, %d observers; want [0 1], 1", calls, m.nobs)
	}
	m.Unobserve(1)
	m.Write(0, bytes.Repeat([]byte{2}, 2*hw.Page))
	if calls != [2]int{0, 1} || m.nobs != 0 {
		t.Fatalf("after dropping both: calls %v, %d observers; want [0 1], 0", calls, m.nobs)
	}
}
