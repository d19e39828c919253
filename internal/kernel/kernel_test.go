package kernel

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"shrimp/internal/hw"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
)

func newM(t *testing.T) (*sim.Engine, *Machine) {
	t.Helper()
	e := sim.NewEngine()
	return e, NewMachine(0, e, 4<<20)
}

func TestMapTranslate(t *testing.T) {
	e, m := newM(t)
	m.Spawn("p", func(p *Process) {
		va := p.MapPages(3, 0)
		if va%hw.Page != 0 {
			t.Errorf("MapPages not page aligned: %#x", va)
		}
		pa0, err := p.Translate(va)
		if err != nil {
			t.Fatal(err)
		}
		pa1, _ := p.Translate(va + hw.Page)
		if pa0 == pa1 {
			t.Error("distinct pages share a frame")
		}
		if _, err := p.Translate(0xdead0000); err == nil {
			t.Error("unmapped VA translated")
		}
		// In-page offsets preserved.
		paOff, _ := p.Translate(va + 123)
		if paOff != pa0+123 {
			t.Errorf("offset broken: %#x vs %#x", paOff, pa0)
		}
	})
	e.RunAll()
}

func TestUnmapFreesFrames(t *testing.T) {
	e, m := newM(t)
	free := func() int { return len(m.freedFrames) + m.Mem.Pages() - int(m.nextFrame) }
	m.Spawn("p", func(p *Process) {
		before := free()
		va := p.MapPages(4, 0)
		p.UnmapPages(va, 4)
		if free() != before {
			t.Errorf("frames leaked: %d -> %d", before, free())
		}
		if _, err := p.Translate(va); err == nil {
			t.Error("unmapped page still translates")
		}
	})
	e.RunAll()
}

func TestAllocAlignment(t *testing.T) {
	e, m := newM(t)
	m.Spawn("p", func(p *Process) {
		a := p.Alloc(10, 1)
		b := p.Alloc(10, 4)
		c := p.Alloc(10, 64)
		if b%4 != 0 || c%64 != 0 {
			t.Errorf("alignment violated: %#x %#x %#x", a, b, c)
		}
		// Large allocation spanning pages must be contiguous and usable.
		big := p.Alloc(3*hw.Page+100, 4)
		data := bytes.Repeat([]byte{0xab}, 3*hw.Page+100)
		p.WriteBytes(big, data)
		if !bytes.Equal(p.ReadBytes(big, len(data)), data) {
			t.Error("large heap allocation roundtrip failed")
		}
	})
	e.RunAll()
}

func TestWriteReadCosts(t *testing.T) {
	e, m := newM(t)
	m.Spawn("p", func(p *Process) {
		va := p.Alloc(8192, 4)
		data := make([]byte, 4800)
		t0 := p.P.Now()
		p.WriteBytes(va, data)
		bulkCost := p.P.Now().Sub(t0)
		want := time.Duration(4800) * hw.MemCopyPerByte
		// Page splitting must not change the bulk copy cost.
		if bulkCost != want {
			t.Errorf("bulk write cost %v want %v", bulkCost, want)
		}
		t0 = p.P.Now()
		p.WriteWord(va, 7)
		if got := p.P.Now().Sub(t0); got != hw.WordTouchCost {
			t.Errorf("word write cost %v", got)
		}
	})
	e.RunAll()
}

func TestAUPageCosts(t *testing.T) {
	e, m := newM(t)
	var snooped []sim.Time
	m.Mem.SetSnoop(func(pa mem.PA, _ int32, b []byte) { snooped = append(snooped, e.Now()) })
	m.Spawn("p", func(p *Process) {
		va := p.MapPages(1, FlagWriteThrough)
		p.SetAUPage(PageOf(va), true)
		pte, _ := p.PTEOf(va)
		p.M.Mem.SetSnooped(pte.Frame, 1)
		data := make([]byte, 1000)
		t0 := p.P.Now()
		p.WriteBytes(va, data)
		// CPU occupancy is the streaming rate only.
		if got, want := p.P.Now().Sub(t0), time.Duration(1000)*hw.AUStorePerByte; got != want {
			t.Errorf("AU store CPU cost %v want %v", got, want)
		}
	})
	e.RunAll()
	// The snoop saw the store in AUSegment pieces, each one AUSnoopDelay
	// after the CPU retired that segment.
	want := (1000 + hw.AUSegment - 1) / hw.AUSegment
	if len(snooped) != want {
		t.Fatalf("snoop presentations = %d, want %d", len(snooped), want)
	}
	seg1Done := sim.Time(0).Add(time.Duration(hw.AUSegment) * hw.AUStorePerByte)
	if want := seg1Done.Add(hw.AUSnoopDelay); snooped[0] != want {
		t.Errorf("first snoop at %v, want %v", snooped[0], want)
	}
}

func TestAUSegmentedStream(t *testing.T) {
	// A long AU store burst must reach the snoop in AUSegment pieces as
	// the copy proceeds — not as one end-of-copy burst.
	e, m := newM(t)
	var snoops []sim.Time
	m.Mem.SetSnoop(func(pa mem.PA, _ int32, b []byte) {
		if len(b) != hw.AUSegment {
			t.Errorf("segment size %d", len(b))
		}
		snoops = append(snoops, e.Now())
	})
	m.Spawn("p", func(p *Process) {
		va := p.MapPages(1, FlagWriteThrough)
		p.SetAUPage(PageOf(va), true)
		pte, _ := p.PTEOf(va)
		p.M.Mem.SetSnooped(pte.Frame, 1)
		p.WriteBytes(va, make([]byte, hw.Page))
	})
	e.RunAll()
	want := hw.Page / hw.AUSegment
	if len(snoops) != want {
		t.Fatalf("segments = %d, want %d", len(snoops), want)
	}
	seg := time.Duration(hw.AUSegment) * hw.AUStorePerByte
	for i := 1; i < len(snoops); i++ {
		if gap := snoops[i].Sub(snoops[i-1]); gap != seg {
			t.Fatalf("segment gap %v, want %v (pipeline broken)", gap, seg)
		}
	}
}

func TestMemBusSerializesCopies(t *testing.T) {
	e, m := newM(t)
	var end1, end2 sim.Time
	m.Spawn("a", func(p *Process) {
		va := p.Alloc(20000, 4)
		p.WriteBytes(va, make([]byte, 16000))
		end1 = p.P.Now()
	})
	m.Spawn("b", func(p *Process) {
		va := p.Alloc(20000, 4)
		p.WriteBytes(va, make([]byte, 16000))
		end2 = p.P.Now()
	})
	e.RunAll()
	solo := time.Duration(16000) * hw.MemCopyPerByte
	if end2.Sub(0) < 2*solo-time.Microsecond {
		t.Fatalf("concurrent copies did not serialize on the bus: %v %v (solo %v)", end1, end2, solo)
	}
}

func TestWaitWord(t *testing.T) {
	e, m := newM(t)
	var saw uint32
	var at sim.Time
	var flagVA VA
	ready := sim.NewCond(e)
	var waiter *Process
	waiter = m.Spawn("waiter", func(p *Process) {
		flagVA = p.MapPages(1, 0)
		ready.Broadcast()
		saw = p.WaitWord(flagVA, func(v uint32) bool { return v == 42 })
		at = p.P.Now()
	})
	m.Spawn("setter", func(p *Process) {
		for flagVA == 0 {
			ready.Wait(p.P)
		}
		p.P.Sleep(100 * time.Microsecond)
		// Simulate a DMA write landing in the waiter's page.
		pa, _ := waiter.Translate(flagVA)
		m.Mem.Write(pa, []byte{42, 0, 0, 0})
	})
	e.RunAll()
	if saw != 42 {
		t.Fatalf("saw %d", saw)
	}
	if at < sim.Time(100*1000) || at > sim.Time(101*1000) {
		t.Fatalf("woke at %v, want ~100us", at)
	}
}

func TestWaitPredTimeout(t *testing.T) {
	e, m := newM(t)
	var ok bool
	var at sim.Time
	m.Spawn("w", func(p *Process) {
		va := p.MapPages(1, 0)
		ok = p.WaitPred([]VA{va}, nil, 50*time.Microsecond, func() bool { return p.PeekWord(va) != 0 })
		at = p.P.Now()
	})
	e.RunAll()
	if ok {
		t.Fatal("timeout wait reported success")
	}
	if at != sim.Time(50*1000) {
		t.Fatalf("returned at %v, want the 50us deadline", at)
	}
}

// Property: WriteBytes/ReadBytes roundtrip across arbitrary offsets and
// sizes, including page-crossing ones.
func TestDataRoundtripProperty(t *testing.T) {
	e, m := newM(t)
	m.Spawn("p", func(p *Process) {
		// A full 64K of offsets plus a page of slack: quick may pick an
		// offset near 0xFFFF with a multi-byte payload, and the write
		// must still land inside the allocation.
		base := p.Alloc(64*1024+4096, 1)
		f := func(off uint16, data []byte) bool {
			if len(data) == 0 || len(data) > 4096 {
				return true
			}
			va := base + VA(off)
			p.WriteBytes(va, data)
			return bytes.Equal(p.ReadBytes(va, len(data)), data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Error(err)
		}
	})
	e.RunAll()
}

func TestComputeChargesCPU(t *testing.T) {
	e, m := newM(t)
	var end sim.Time
	m.Spawn("p", func(p *Process) {
		p.Compute(7 * time.Microsecond)
		end = p.P.Now()
	})
	e.RunAll()
	if end != sim.Time(7000) {
		t.Fatalf("compute end %v", end)
	}
	if m.CPU.Busy != 7*time.Microsecond {
		t.Fatalf("cpu busy %v", m.CPU.Busy)
	}
}

func TestWaitPred(t *testing.T) {
	e, m := newM(t)
	extra := sim.NewCond(e)
	var flagVA VA
	var woke []string
	var waiter *Process
	waiter = m.Spawn("waiter", func(p *Process) {
		flagVA = p.MapPages(1, 0)
		hits := 0
		p.WaitPred([]VA{flagVA}, []*sim.Cond{extra}, 0, func() bool {
			hits++
			return p.PeekWord(flagVA) == 2
		})
		woke = append(woke, "done")
		if hits < 2 {
			t.Errorf("predicate evaluated %d times, expected re-checks", hits)
		}
	})
	m.Spawn("driver", func(p *Process) {
		p.P.Sleep(10 * time.Microsecond)
		extra.Broadcast() // wakes, predicate false
		p.P.Sleep(10 * time.Microsecond)
		pa, _ := waiter.Translate(flagVA)
		m.Mem.Write(pa, []byte{1, 0, 0, 0}) // wakes, still false
		p.P.Sleep(10 * time.Microsecond)
		m.Mem.Write(pa, []byte{2, 0, 0, 0}) // predicate true
	})
	e.RunAll()
	if len(woke) != 1 {
		t.Fatal("WaitPred never satisfied")
	}
}

// ObserveWrites watches the frame behind a mapped page: a CPU store that
// spans two observed pages reports each page's own page-relative fragment.
func TestObserveWritesCPUStore(t *testing.T) {
	e, m := newM(t)
	var seen [][3]int
	m.Spawn("p", func(p *Process) {
		va := p.MapPages(2, 0)
		for pg := 0; pg < 2; pg++ {
			p.ObserveWrites(va+VA(pg*hw.Page), func(off, n int) { seen = append(seen, [3]int{pg, off, n}) })
		}
		p.WriteBytes(va+hw.Page-6, make([]byte, 10))
	})
	e.RunAll()
	if want := [][3]int{{0, hw.Page - 6, 6}, {1, 0, 4}}; !slices.Equal(seen, want) {
		t.Fatalf("observers saw %v, want %v", seen, want)
	}
}

// Unmapping a page drops its frame's observer: the frame's next mapping
// is written without calling the observer of the page it used to back.
func TestUnmapDropsWriteObserver(t *testing.T) {
	e, m := newM(t)
	calls := 0
	m.Spawn("p", func(p *Process) {
		va := p.MapPages(1, 0)
		f := mem.PageOf(p.mustPA(va))
		p.ObserveWrites(va, func(off, n int) { calls++ })
		p.WriteBytes(va, make([]byte, 4))
		p.UnmapPages(va, 1)
		va2 := p.MapPages(1, 0)
		if g := mem.PageOf(p.mustPA(va2)); g != f {
			t.Fatalf("remap took frame %d, want the freed frame %d", g, f)
		}
		p.WriteBytes(va2, make([]byte, 4))
	})
	e.RunAll()
	if calls != 1 {
		t.Fatalf("observer called %d times, want 1 (before the unmap only)", calls)
	}
}

func TestCopyVACrossPageProperty(t *testing.T) {
	e, m := newM(t)
	m.Spawn("p", func(p *Process) {
		src := p.Alloc(5*hw.Page, 1)
		dst := p.Alloc(5*hw.Page, 1)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 40; i++ {
			off := rng.Intn(2 * hw.Page)
			n := 1 + rng.Intn(2*hw.Page)
			data := make([]byte, n)
			rng.Read(data)
			p.Poke(src+VA(off), data)
			p.CopyVA(dst+VA(off), src+VA(off), n)
			if !bytes.Equal(p.Peek(dst+VA(off), n), data) {
				t.Fatalf("CopyVA corrupted at off=%d n=%d", off, n)
			}
		}
	})
	e.RunAll()
}
