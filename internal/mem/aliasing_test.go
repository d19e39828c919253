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
	m.WriteDMA(100, []byte{1, 2, 3, 4})
	got := m.Read(100, 4)
	got[0] = 0xFF // caller scribbles on its copy
	if again := m.Read(100, 4); !bytes.Equal(again, []byte{1, 2, 3, 4}) {
		t.Fatalf("mutating Read's result changed RAM: %v", again)
	}
}

func TestReadOfUntouchedPagesIsZero(t *testing.T) {
	// Never-written frames read as zeros from the shared zero page; a
	// caller scribbling on the returned copy must not poison reads of
	// other untouched frames (the classic shared-zero-page aliasing bug).
	e := sim.NewEngine()
	m := New(e, 4*hw.Page)
	got := m.Read(0, hw.Page)
	for i := range got {
		got[i] = 0xAB
	}
	other := m.Read(2*hw.Page, hw.Page)
	for i, b := range other {
		if b != 0 {
			t.Fatalf("untouched frame reads %#x at +%d after scribbling on another read", b, i)
		}
	}
}

func TestWriteCPUSnoopSeesValuesNotRAM(t *testing.T) {
	// The snoop hook receives the store values; mutating its argument
	// must not change what landed in memory.
	e := sim.NewEngine()
	m := New(e, 4*hw.Page)
	m.SetSnooped(0, 1)
	m.SetSnoop(func(pa PA, _ int32, data []byte) {
		for i := range data {
			data[i] = 0xEE
		}
	})
	m.WriteCPU(8, []byte{9, 8, 7})
	if got := m.Read(8, 3); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("snoop hook mutated RAM through its argument: %v", got)
	}
}

func TestWriteCPUSnoopPageLocalFragments(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 4*hw.Page)
	m.SetSnooped(0, 1)
	m.SetSnooped(1, 1)
	var frags [][2]int // (pa, len)
	m.SetSnoop(func(pa PA, _ int32, data []byte) { frags = append(frags, [2]int{int(pa), len(data)}) })
	span := make([]byte, 100)
	m.WriteCPU(PA(hw.Page-30), span)
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
		{"read past end", func() { m.Read(PA(2*hw.Page-1), 2) }},
		{"negative length", func() { m.Read(0, -1) }},
		{"huge pa wraps int", func() { m.Read(PA(1<<63+5), 1) }},
		{"write past end", func() { m.WriteDMA(PA(2*hw.Page), make([]byte, 1)) }},
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
	m.WriteDMA(pa, data)
	if got := m.Read(pa, len(data)); !bytes.Equal(got, data) {
		t.Fatal("cross-page write did not round-trip")
	}
	into := make([]byte, len(data))
	m.ReadInto(pa, into)
	if !bytes.Equal(into, data) {
		t.Fatal("cross-page ReadInto mismatch")
	}
}
