package mem

import (
	"bytes"
	"testing"

	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// A released memory's frames go to the free list, and the next memory's
// first writes take them back cleared: a word written into a never-written
// page leaves the rest of that page reading as zeros, whatever the frame
// held in the world before.
func TestReleasedFramesReuseCleared(t *testing.T) {
	freeFrames = nil
	const pages = 8
	a := New(sim.NewEngine(), 2*pages*hw.Page)
	a.Write(0, bytes.Repeat([]byte{0xa5}, pages*hw.Page))
	a.Release()
	if len(freeFrames) != pages {
		t.Fatalf("free list holds %d frames after release, want %d", len(freeFrames), pages)
	}

	b := New(sim.NewEngine(), 2*pages*hw.Page)
	word := []byte{1, 2, 3, 4}
	want := make([]byte, hw.Page)
	copy(want[64:], word)
	for pg := 0; pg < pages; pg++ {
		base := PA(pg * hw.Page)
		b.Write(base+64, word)
		if got := read(b, base, hw.Page); !bytes.Equal(got, want) {
			t.Fatalf("page %d carries stale bytes from the released memory", pg)
		}
	}
	if len(freeFrames) != 0 {
		t.Fatalf("%d released frames left unused, want 0", len(freeFrames))
	}
}

// The free list never grows past its cap: frames released beyond it go to
// the garbage collector.
func TestFreeListCapped(t *testing.T) {
	freeFrames = nil
	for _, pages := range []int{maxFreeFrames + 64, 16} {
		m := New(sim.NewEngine(), pages*hw.Page)
		for pg := 0; pg < pages; pg++ {
			m.Write(PA(pg*hw.Page), []byte{1})
		}
		m.Release()
		if len(freeFrames) != maxFreeFrames {
			t.Fatalf("after releasing %d frames: free list holds %d, cap %d", pages, len(freeFrames), maxFreeFrames)
		}
	}
}

// A released memory is unusable: every read and write panics, and a second
// Release is a no-op.
func TestReleasedMemoryPanics(t *testing.T) {
	m := New(sim.NewEngine(), 4*hw.Page)
	m.Write(0, []byte{1})
	m.Release()
	m.Release()
	for name, access := range map[string]func(){
		"ReadInto": func() { m.ReadInto(0, make([]byte, 4)) },
		"U32":      func() { m.U32(hw.Page) },
		"Write":    func() { m.Write(2*hw.Page, []byte{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			access()
		}()
	}
}
