package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"shrimp/internal/hw"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
)

// inProc runs body inside a process on a fresh machine and runs the
// simulation to completion: the costed access paths sleep, so they must
// run in a proc.
func inProc(body func(p *Process)) {
	e := sim.NewEngine()
	m := NewMachine(0, e, 4<<20)
	m.Spawn("p", body)
	e.RunAll()
}

// snoopPages installs a bus snoop that copies what it is shown, as the
// NIC's does, and marks the frames of n pages at va as snooped.
func snoopPages(p *Process, va VA, n int) {
	var sink [hw.Page]byte
	p.M.Mem.SetSnoop(func(_ mem.PA, _ int32, data []byte) { copy(sink[:], data) })
	for i := 0; i < n; i++ {
		pte, _ := p.PTEOf(va + VA(i*hw.Page))
		p.M.Mem.SetSnooped(pte.Frame, 1)
	}
}

// allocsIn measures fn's steady-state allocations inside a process: one
// warm-up call (pools, scratch buffers and watcher tables fill), then
// testing.AllocsPerRun.
func allocsIn(setup func(p *Process) func()) float64 {
	var allocs float64
	inProc(func(p *Process) {
		fn := setup(p)
		fn()
		allocs = testing.AllocsPerRun(50, fn)
	})
	return allocs
}

// Translate is one indexed load: no allocation.
func TestTranslateAllocFree(t *testing.T) {
	allocs := allocsIn(func(p *Process) func() {
		va := p.MapPages(4, 0)
		return func() {
			if _, err := p.Translate(va + 3*hw.Page + 123); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per Translate, want 0", allocs)
	}
}

// A warm CopyVA stages through the process's scratch buffer and presents
// snooped stores through the memory's staging buffer: no allocation, to a
// plain destination or an AU-bound one, across page boundaries either way.
func TestCopyVAAllocFree(t *testing.T) {
	for _, au := range []bool{false, true} {
		allocs := allocsIn(func(p *Process) func() {
			src := p.MapPages(3, 0)
			dst := p.MapPages(3, FlagWriteThrough)
			snoopPages(p, dst, 3)
			if au {
				for i := 0; i < 3; i++ {
					p.SetAUPage(PageOf(dst)+VPN(i), true)
				}
			}
			return func() { p.CopyVA(dst+100, src+900, 2*hw.Page+50) }
		})
		if allocs != 0 {
			t.Errorf("AU destination %v: %v allocs per CopyVA, want 0", au, allocs)
		}
	}
}

// WriteWord's four bytes stay on the stack, snooped or not.
func TestWriteWordAllocFree(t *testing.T) {
	for _, au := range []bool{false, true} {
		allocs := allocsIn(func(p *Process) func() {
			va := p.MapPages(1, FlagWriteThrough)
			snoopPages(p, va, 1)
			p.SetAUPage(PageOf(va), au)
			v := uint32(0)
			return func() {
				v++
				p.WriteWord(va+8, v)
			}
		})
		if allocs != 0 {
			t.Errorf("AU page %v: %v allocs per WriteWord, want 0", au, allocs)
		}
	}
}

// A CopyVA run from an interrupt handler (a notification handler, say)
// while an outer CopyVA is parked in its store must not clobber the outer
// copy's staging buffer.
func TestCopyVANestedInHandler(t *testing.T) {
	inProc(func(p *Process) {
		src := p.MapPages(2, 0)
		dst := p.MapPages(2, 0)
		hsrc := p.MapPages(1, 0)
		hdst := p.MapPages(1, 0)
		outer := make([]byte, 2*hw.Page)
		for i := range outer {
			outer[i] = byte(i*7 + 1)
		}
		p.Poke(src, outer)
		p.Poke(hsrc, bytes.Repeat([]byte{0xee}, hw.Page))
		p.M.Eng.Post(hw.WordTouchCost, func() {
			p.P.Interrupt(func(*sim.Proc) { p.CopyVA(hdst, hsrc, hw.Page) })
		})
		p.CopyVA(dst, src, 2*hw.Page)
		if got := p.Peek(dst, 2*hw.Page); !slices.Equal(got, outer) {
			t.Error("outer copy corrupted by the handler's nested copy")
		}
		if got := p.Peek(hdst, hw.Page); !slices.Equal(got, bytes.Repeat([]byte{0xee}, hw.Page)) {
			t.Error("handler's copy corrupted")
		}
		if len(p.copyBufs) != 2 {
			t.Errorf("%d staging levels used, want 2 (the handler ran mid-copy)", len(p.copyBufs))
		}
	})
}

func BenchmarkTranslate(b *testing.B) {
	inProc(func(p *Process) {
		va := p.MapPages(4, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Translate(va + VA(i%(4*hw.Page))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCopyVA(b *testing.B) {
	inProc(func(p *Process) {
		src := p.MapPages(2, 0)
		dst := p.MapPages(2, 0)
		p.CopyVA(dst, src, hw.Page)
		b.SetBytes(hw.Page)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.CopyVA(dst+VA(i%64)*4, src, hw.Page)
		}
	})
}

// ptModel is the page table as the separate maps it replaced, with the
// frame allocator mirrored so expected frames are known.
type ptModel struct {
	pt    map[VPN]PTE
	au    map[VPN]bool
	prot  map[VPN]Prot
	freed []mem.PFN
	next  mem.PFN
}

func (md *ptModel) alloc() mem.PFN {
	if n := len(md.freed); n > 0 {
		f := md.freed[n-1]
		md.freed = md.freed[:n-1]
		return f
	}
	md.next++
	return md.next - 1
}

// ptSlot is one mapped page, protSlot one protection override, as
// tablePages renders them in VPN order.
type ptSlot struct {
	VPN   VPN
	Frame mem.PFN
	Flags PTEFlags
}

type protSlot struct {
	VPN  VPN
	Prot Prot
}

// image renders the model's expected page-table contents.
func (md *ptModel) image() string {
	var pt []ptSlot
	for _, vpn := range sortedKeys(md.pt) {
		pt = append(pt, ptSlot{VPN: vpn, Frame: md.pt[vpn].Frame, Flags: md.pt[vpn].Flags})
	}
	var prot []protSlot
	for _, vpn := range sortedKeys(md.prot) {
		prot = append(prot, protSlot{VPN: vpn, Prot: md.prot[vpn]})
	}
	return fmt.Sprintf("%+v %+v %+v", pt, prot, sortedKeys(md.au))
}

func sortedKeys[V any](m map[VPN]V) []VPN {
	keys := make([]VPN, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// walkPages lists every entry of the process's page table in VPN order:
// its mapped pages, its protection overrides, and its AU pages.
func walkPages(p *Process) (pt []ptSlot, prot []protSlot, au []VPN) {
	p.pages.All(func(i int, e *pageEntry) bool {
		vpn := VPN(i)
		if e.mapped {
			pt = append(pt, ptSlot{VPN: vpn, Frame: e.pte.Frame, Flags: e.pte.Flags})
		}
		if e.prot != ProtRW {
			prot = append(prot, protSlot{VPN: vpn, Prot: e.prot})
		}
		if e.au {
			au = append(au, vpn)
		}
		return true
	})
	return pt, prot, au
}

// tablePages renders walkPages in the model's image format.
func tablePages(p *Process) string {
	pt, prot, au := walkPages(p)
	return fmt.Sprintf("%+v %+v %+v", pt, prot, au)
}

// TestPageTableMatchesMapModel drives seeded random MapPages, UnmapPages,
// SetFlags, Mprotect and SetAUPage sequences against the map-based model.
// After every operation the lookups must agree at every VPN the sequence
// could have touched, and a walk of the whole table must list the model's
// entries in VPN order.
func TestPageTableMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		md := &ptModel{pt: map[VPN]PTE{}, au: map[VPN]bool{}, prot: map[VPN]Prot{}, next: 1}
		inProc(func(p *Process) {
			nextVA := p.nextVA
			touched := map[VPN]bool{}
			for step := 0; step < 150; step++ {
				mapped := sortedKeys(md.pt)
				switch op := rng.Intn(5); {
				case op == 0 || len(mapped) == 0:
					n, flags := 1+rng.Intn(40), PTEFlags(rng.Intn(8))
					base := p.MapPages(n, flags)
					if base != nextVA {
						t.Fatalf("seed %d step %d: MapPages at %#x, want %#x", seed, step, base, nextVA)
					}
					for i := 0; i < n; i++ {
						md.pt[PageOf(base)+VPN(i)] = PTE{Frame: md.alloc(), Flags: flags}
						touched[PageOf(base)+VPN(i)] = true
					}
					nextVA = base + VA(n*hw.Page)
				case op == 1:
					vpn := mapped[rng.Intn(len(mapped))]
					n := 1
					for n < 5 {
						if _, ok := md.pt[vpn+VPN(n)]; !ok {
							break
						}
						n++
					}
					p.UnmapPages(VA(vpn)*hw.Page, n)
					for i := 0; i < n; i++ {
						md.freed = append(md.freed, md.pt[vpn+VPN(i)].Frame)
						delete(md.pt, vpn+VPN(i))
					}
				case op == 2:
					vpn, flags := mapped[rng.Intn(len(mapped))], PTEFlags(rng.Intn(8))
					p.SetFlags(vpn, flags)
					md.pt[vpn] = PTE{Frame: md.pt[vpn].Frame, Flags: flags}
				case op == 3:
					vpn, pr := mapped[rng.Intn(len(mapped))], Prot(rng.Intn(3))
					p.Mprotect(VA(vpn)*hw.Page, 1, pr)
					if pr == ProtRW {
						delete(md.prot, vpn)
					} else {
						md.prot[vpn] = pr
					}
				default:
					// Anywhere, mapped or not, up to chunks well past the
					// mapped range.
					vpn, on := VPN(rng.Intn(3000)), rng.Intn(3) != 0
					p.SetAUPage(vpn, on)
					touched[vpn] = true
					if on {
						md.au[vpn] = true
					} else {
						delete(md.au, vpn)
					}
				}
				if got, want := tablePages(p), md.image(); got != want {
					t.Fatalf("seed %d step %d: page table\n got %s\nwant %s", seed, step, got, want)
				}
				// Every page the sequence touched, mapped or since
				// unmapped, plus a spread of never-touched ones.
				check := sortedKeys(touched)
				for i := 0; i < 16; i++ {
					check = append(check, VPN(rng.Intn(4000)))
				}
				for _, vpn := range check {
					checkPage(t, p, md, vpn, fmt.Sprintf("seed %d step %d", seed, step))
				}
			}
		})
	}
}

func checkPage(t *testing.T, p *Process, md *ptModel, vpn VPN, at string) {
	t.Helper()
	va := VA(vpn)*hw.Page + 44
	want, mapped := md.pt[vpn]
	if pte, ok := p.PTEOf(va); ok != mapped || pte != want {
		t.Fatalf("%s vpn %d: PTEOf = %v,%v, want %v,%v", at, vpn, pte, ok, want, mapped)
	}
	pa, err := p.Translate(va)
	if (err == nil) != mapped || (mapped && pa != want.Frame.Base()+44) {
		t.Fatalf("%s vpn %d: Translate = %#x,%v, want frame %d mapped %v", at, vpn, pa, err, want.Frame, mapped)
	}
	if got := protOf(p, va); got != md.prot[vpn] {
		t.Fatalf("%s vpn %d: prot = %v, want %v", at, vpn, got, md.prot[vpn])
	}
	if got := p.IsAUPage(vpn); got != md.au[vpn] {
		t.Fatalf("%s vpn %d: IsAUPage = %v, want %v", at, vpn, got, md.au[vpn])
	}
}
