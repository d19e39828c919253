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

// resetChunkPools empties every table-chunk free list.
func resetChunkPools() {
	chunkPools, pooledChunkBytes = map[any]any{}, 0
}

// A released table's chunks go to its element type's free list, and the
// next table's first writes take them back zeroed, whatever they held.
func TestReleasedChunksReuseCleared(t *testing.T) {
	resetChunkPools()
	var a Sparse[int]
	for _, i := range []int{3, 300, 3000} {
		for j := i &^ (1<<sparseShift - 1); j < i|(1<<sparseShift-1); j++ {
			*a.W(j) = j + 1
		}
	}
	a.Release()
	if got := len(*chunkPool[int]()); got != 3 {
		t.Fatalf("free list holds %d chunks after release, want 3", got)
	}
	if got, want := PooledChunkBytes(), 3*(1<<sparseShift)*8; got != want {
		t.Fatalf("pooled %d B, want %d", got, want)
	}
	if a.Get(300) != nil {
		t.Fatal("a released table still reads its entries")
	}

	var b Sparse[int]
	for _, i := range []int{0, 1 << sparseShift, 5 << sparseShift} {
		*b.W(i) = -1
	}
	b.All(func(i int, e *int) bool {
		if *e != 0 && *e != -1 {
			t.Fatalf("entry %d of a reused chunk reads %d, want 0", i, *e)
		}
		return true
	})
	if got := len(*chunkPool[int]()); got != 0 || PooledChunkBytes() != 0 {
		t.Fatalf("%d chunks (%d B) left pooled, want none", got, PooledChunkBytes())
	}
}

// A second Release pushes nothing: were a chunk pushed twice, two live
// tables would take the same chunk and write each other's entries.
func TestDoubleReleasePushesOnce(t *testing.T) {
	resetChunkPools()
	var a Sparse[int]
	*a.W(0) = 1
	*a.W(1 << sparseShift) = 2
	a.Release()
	a.Release()
	if got := len(*chunkPool[int]()); got != 2 {
		t.Fatalf("free list holds %d chunks after two releases of 2, want 2", got)
	}

	m := New(sim.NewEngine(), 4*hw.Page)
	m.Write(0, []byte{1})
	m.PageCond(1)
	m.Observe(2, func(int, int) {})
	m.Release()
	pooled := PooledChunkBytes()
	m.Release()
	if PooledChunkBytes() != pooled {
		t.Fatalf("a second Memory.Release pooled %d more bytes", PooledChunkBytes()-pooled)
	}

	tabs := make([]Sparse[int], 4)
	for k := range tabs {
		*tabs[k].W(0) = k
	}
	for k := range tabs {
		if got := *tabs[k].Get(0); got != k {
			t.Fatalf("table %d reads %d: it shares a chunk with table %d", k, got, got)
		}
	}
}

// The free lists never hold more than their shared byte cap: chunks
// released beyond it go to the garbage collector.
func TestChunkPoolCapped(t *testing.T) {
	resetChunkPools()
	chunk := (1 << sparseShift) * 8
	over := maxPooledChunkBytes/chunk + 4
	var a Sparse[int]
	var b Sparse[uint64]
	for ci := 0; ci < over; ci++ {
		*a.W(ci << sparseShift) = 1
		*b.W(ci << sparseShift) = 1
	}
	a.Release()
	b.Release()
	if got := PooledChunkBytes(); got > maxPooledChunkBytes || got < maxPooledChunkBytes-chunk {
		t.Fatalf("pooled %d B after releasing %d B, cap %d", got, 2*over*chunk, maxPooledChunkBytes)
	}
	if got := len(*chunkPool[int]()) + len(*chunkPool[uint64]()); got*chunk != PooledChunkBytes() {
		t.Fatalf("free lists hold %d chunks, counted as %d B", got, PooledChunkBytes())
	}
}
