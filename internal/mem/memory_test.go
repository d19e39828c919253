package mem

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// read copies n bytes at pa out of m.
func read(m *Memory, pa PA, n int) []byte {
	b := make([]byte, n)
	m.ReadInto(pa, b)
	return b
}

// cpuStore stores b at pa and presents it to the snoop, as the kernel's AU
// store path does (there the presentation comes one snoop delay later).
func cpuStore(m *Memory, pa PA, b []byte) {
	m.Write(pa, b)
	m.PresentToSnoop(pa, b)
}

func TestReadWriteRoundtrip(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 64*1024)
	want := []byte("the quick brown fox")
	m.Write(1000, want)
	if got := read(m, 1000, len(want)); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestSizeRoundsToPage(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, hw.Page+1)
	if m.Pages() != 2 {
		t.Fatalf("pages=%d, want 2", m.Pages())
	}
	m.Write(PA(2*hw.Page-1), []byte{1}) // the rounded-up page's last byte
}

func TestOutOfRangePanics(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, hw.Page)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	read(m, PA(hw.Page-2), 4)
}

func TestWordAccess(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 2*hw.Page)
	m.Write(16, []byte{0xef, 0xbe, 0xad, 0xde})
	if got := m.U32(16); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	// Little-endian layout.
	if b := read(m, 16, 4); !bytes.Equal(b, []byte{0xef, 0xbe, 0xad, 0xde}) {
		t.Fatalf("layout = %x", b)
	}
	// A word that straddles a page boundary.
	m.Write(PA(hw.Page-2), []byte{7, 0, 0, 0})
	if got := m.U32(PA(hw.Page - 2)); got != 7 {
		t.Fatalf("straddling word = %d", got)
	}
}

func TestSnoopSeesOnlyMarkedPages(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 4*hw.Page)
	var seen []PA
	m.SetSnoop(func(pa PA, _ int32, data []byte) { seen = append(seen, pa) })
	m.SetSnooped(1, 1)

	cpuStore(m, PA(0*hw.Page+8), []byte{1}) // unmarked page: no snoop
	cpuStore(m, PA(1*hw.Page+8), []byte{2}) // marked page: snooped
	m.Write(PA(1*hw.Page+16), []byte{3})    // DMA: never snooped
	if len(seen) != 1 || seen[0] != PA(hw.Page+8) {
		t.Fatalf("seen = %v", seen)
	}

	m.SetSnooped(1, 0)
	cpuStore(m, PA(1*hw.Page+8), []byte{4})
	if len(seen) != 1 {
		t.Fatal("snoop fired after unmark")
	}
}

// A frame's snoop tag travels with each of its presented stores: a store
// in a frame tagged k reaches the snoop with k, a retag takes effect on the
// next store, and tag 0 stops the presentations.
func TestSnoopCarriesFrameTag(t *testing.T) {
	m := New(sim.NewEngine(), 4*hw.Page)
	type ev struct {
		pa  PA
		tag int32
	}
	var seen []ev
	m.SetSnoop(func(pa PA, tag int32, _ []byte) { seen = append(seen, ev{pa, tag}) })
	m.SetSnooped(1, 7)
	m.SetSnooped(2, 3)
	if m.Snooped(0) != 0 || m.Snooped(1) != 7 || m.Snooped(2) != 3 {
		t.Fatalf("tags = %d %d %d, want 0 7 3", m.Snooped(0), m.Snooped(1), m.Snooped(2))
	}

	cpuStore(m, PA(hw.Page+4), []byte{1})
	cpuStore(m, PA(2*hw.Page-2), []byte{2, 3, 4, 5}) // crosses into frame 2
	cpuStore(m, PA(2*hw.Page+8), []byte{6})
	m.SetSnooped(1, 9)
	cpuStore(m, PA(hw.Page+4), []byte{7})
	want := []ev{{hw.Page + 4, 7}, {2*hw.Page - 2, 7}, {2 * hw.Page, 3}, {2*hw.Page + 8, 3}, {hw.Page + 4, 9}}
	if !slices.Equal(seen, want) {
		t.Fatalf("snoop saw %v, want %v", seen, want)
	}

	m.SetSnooped(1, 0)
	m.SetSnooped(2, 0)
	cpuStore(m, PA(hw.Page), make([]byte, 2*hw.Page))
	if len(seen) != len(want) || m.Snooped(1) != 0 || m.Snooped(2) != 0 {
		t.Fatalf("stores after clearing the tags reached the snoop: %v", seen[len(want):])
	}
}

func TestSnoopSplitsAtPageBoundary(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 4*hw.Page)
	type ev struct {
		pa PA
		n  int
	}
	var seen []ev
	m.SetSnoop(func(pa PA, _ int32, data []byte) { seen = append(seen, ev{pa, len(data)}) })
	m.SetSnooped(1, 1)
	m.SetSnooped(2, 1)

	start := PA(2*hw.Page - 10)
	cpuStore(m, start, make([]byte, 30))
	if len(seen) != 2 {
		t.Fatalf("want 2 fragments, got %v", seen)
	}
	if seen[0] != (ev{start, 10}) || seen[1] != (ev{PA(2 * hw.Page), 20}) {
		t.Fatalf("fragments = %v", seen)
	}
}

// A waiter on a page's watcher cond (PageCond) wakes when a write lands in
// the page...
func TestWaitChangeWakesOnWrite(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 4*hw.Page)
	var sawAt sim.Time
	e.Spawn("waiter", func(p *sim.Proc) {
		for m.U32(100) == 0 {
			sim.WaitAny(p, 0, m.PageCond(PageOf(100)))
		}
		sawAt = p.Now()
	})
	e.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(50 * time.Microsecond)
		m.Write(100, []byte{1, 0, 0, 0})
	})
	e.RunAll()
	if sawAt != sim.Time(50*1000) {
		t.Fatalf("waiter woke at %v, want 50us", sawAt)
	}
}

// ...and not when one lands in another page.
func TestWaitChangeIgnoresOtherPages(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 4*hw.Page)
	wakes := 0
	e.Spawn("waiter", func(p *sim.Proc) {
		for m.U32(0) == 0 {
			sim.WaitAny(p, 0, m.PageCond(0))
			wakes++
		}
	})
	e.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		m.Write(PA(hw.Page), []byte{9, 0, 0, 0}) // different page: no wake
		p.Sleep(time.Microsecond)
		m.Write(0, []byte{1, 0, 0, 0})
	})
	e.RunAll()
	if wakes != 1 {
		t.Fatalf("waiter woke %d times, want 1", wakes)
	}
}

// Property: writes at arbitrary offsets/lengths are faithfully readable
// back.
func TestWriteReadProperty(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 16*hw.Page)
	f := func(off uint16, data []byte) bool {
		pa := PA(off)
		if int(pa)+len(data) > 16*hw.Page {
			return true // skip out-of-range
		}
		m.Write(pa, data)
		return bytes.Equal(read(m, pa, len(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
