package mem

import (
	"bytes"
	"strings"
	"testing"

	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// Aliasing and bounds-reporting regressions: callers must never be able to
// mutate simulated RAM through a slice the memory handed out, and bounds
// panics must say what access failed.

func TestReadNeverAliasesRAM(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 4*hw.Page)
	src := []byte{1, 2, 3, 4}
	m.Write(100, src)
	src[1] = 0xFF // the writer scribbles on its buffer
	got := read(m, 100, 4)
	got[0] = 0xFF // the reader scribbles on its copy
	if again := read(m, 100, 4); !bytes.Equal(again, []byte{1, 2, 3, 4}) {
		t.Fatalf("mutating a written or read buffer changed RAM: %v", again)
	}
}

func TestReadOfUntouchedPagesIsZero(t *testing.T) {
	// Never-written frames read as zeros from the shared zero page; a
	// caller scribbling on the returned copy must not poison reads of
	// other untouched frames (the classic shared-zero-page aliasing bug).
	e := sim.NewEngine()
	m := New(e, 4*hw.Page)
	got := read(m, 0, hw.Page)
	for i := range got {
		got[i] = 0xAB
	}
	other := read(m, 2*hw.Page, hw.Page)
	for i, b := range other {
		if b != 0 {
			t.Fatalf("untouched frame reads %#x at +%d after scribbling on another read", b, i)
		}
	}
}

func TestPresentToSnoopSeesValuesNotRAM(t *testing.T) {
	// The snoop hook receives the presented store values; mutating its
	// argument must not change what landed in memory.
	e := sim.NewEngine()
	m := New(e, 4*hw.Page)
	m.SetSnooped(0, 1)
	m.SetSnoop(func(pa PA, _ int32, data []byte) {
		for i := range data {
			data[i] = 0xEE
		}
	})
	cpuStore(m, 8, []byte{9, 8, 7})
	if got := read(m, 8, 3); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("snoop hook mutated RAM through its argument: %v", got)
	}
}

func TestPresentToSnoopPageLocalFragments(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 4*hw.Page)
	m.SetSnooped(0, 1)
	m.SetSnooped(1, 1)
	var frags [][2]int // (pa, len)
	m.SetSnoop(func(pa PA, _ int32, data []byte) { frags = append(frags, [2]int{int(pa), len(data)}) })
	span := make([]byte, 100)
	cpuStore(m, PA(hw.Page-30), span)
	want := [][2]int{{hw.Page - 30, 30}, {hw.Page, 70}}
	if len(frags) != len(want) || frags[0] != want[0] || frags[1] != want[1] {
		t.Fatalf("snoop fragments %v, want %v", frags, want)
	}
}

func TestCheckReportsAccessDetails(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 2*hw.Page)
	cases := []struct {
		name string
		fn   func()
	}{
		{"read past end", func() { read(m, PA(2*hw.Page-1), 2) }},
		{"negative length", func() { m.check(0, -1) }},
		{"huge pa wraps int", func() { read(m, PA(1<<63+5), 1) }},
		{"write past end", func() { m.Write(PA(2*hw.Page), make([]byte, 1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("out-of-range access did not panic")
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %T, want string", r)
				}
				for _, field := range []string{"pa=", "n=", "size="} {
					if !strings.Contains(msg, field) {
						t.Fatalf("panic %q missing %s", msg, field)
					}
				}
			}()
			tc.fn()
		})
	}
}

func TestCrossPageReadWrite(t *testing.T) {
	// Bulk moves spanning page boundaries must round-trip exactly across
	// the demand-allocated frames.
	e := sim.NewEngine()
	m := New(e, 8*hw.Page)
	data := make([]byte, 3*hw.Page+123)
	for i := range data {
		data[i] = byte(i * 7)
	}
	pa := PA(hw.Page - 50)
	m.Write(pa, data)
	if got := read(m, pa, len(data)); !bytes.Equal(got, data) {
		t.Fatal("cross-page write did not round-trip")
	}
	into := make([]byte, len(data))
	m.ReadInto(pa, into)
	if !bytes.Equal(into, data) {
		t.Fatal("cross-page ReadInto mismatch")
	}
}
