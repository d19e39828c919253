package mem

import (
	"testing"

	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// The bulk-move paths every transfer strategy funnels through: page-sized
// stores, copy-out reads into caller buffers, and snooped CPU stores.
// ReadInto exists so steady-state transfers are pure copies — allocs/op
// must be 0.

func benchMem() *Memory {
	return New(sim.NewEngine(), 1<<20)
}

func BenchmarkWritePage(b *testing.B) {
	m := benchMem()
	buf := make([]byte, hw.Page)
	b.SetBytes(hw.Page)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Write(PA((i%64)*hw.Page), buf)
	}
}

func BenchmarkReadIntoPage(b *testing.B) {
	m := benchMem()
	buf := make([]byte, hw.Page)
	m.Write(0, buf)
	b.SetBytes(hw.Page)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ReadInto(0, buf)
	}
}

func BenchmarkReadIntoUnbacked(b *testing.B) {
	// Never-written frames read from the shared zero page: same copy cost,
	// no DRAM materialization.
	m := benchMem()
	buf := make([]byte, hw.Page)
	b.SetBytes(hw.Page)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ReadInto(PA((i%64)*hw.Page), buf)
	}
}

// BenchmarkStoreSnooped is the kernel's AU word store: the write, then its
// presentation to the snoop.
func BenchmarkStoreSnooped(b *testing.B) {
	m := benchMem()
	m.SetSnoop(func(pa PA, _ int32, data []byte) {})
	m.SetSnooped(0, 1)
	word := []byte{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpuStore(m, PA(i%1024*4), word)
	}
}

func BenchmarkU32(b *testing.B) {
	m := benchMem()
	m.Write(128, []byte{0xef, 0xbe, 0xad, 0xde})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.U32(128) != 0xdeadbeef {
			b.Fatal("bad read")
		}
	}
}
