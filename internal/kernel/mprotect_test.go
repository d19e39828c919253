package kernel

import (
	"bytes"
	"testing"

	"shrimp/internal/hw"
)

// The Mprotect + fault-upcall suite: read/write/none protections, handler
// retry semantics (freeze-with-retry: the faulting access is held, the
// handler runs, the access retries), nested faults from inside a handler,
// and re-faulting after protection is restored.

// protOf is the protection of va's page as its page-table entry holds it;
// a page without an entry is ProtRW.
func protOf(p *Process, va VA) Prot {
	if e := p.pages.Get(int(PageOf(va))); e != nil {
		return e.prot
	}
	return ProtRW
}

func TestMprotectWriteFault(t *testing.T) {
	e, m := newM(t)
	m.Spawn("p", func(p *Process) {
		va := p.MapPages(1, 0)
		p.Mprotect(va, 1, ProtRead)

		// Reads are allowed without a handler.
		if got := p.ReadBytes(va, 8); !bytes.Equal(got, make([]byte, 8)) {
			t.Errorf("read through ProtRead returned %v", got)
		}

		var faults []PageFault
		p.OnPageFault(func(p *Process, f PageFault) {
			faults = append(faults, f)
			p.Mprotect(va, 1, ProtRW)
		})
		p.WriteBytes(va+12, []byte{1, 2, 3, 4})

		if len(faults) != 1 {
			t.Fatalf("got %d faults, want 1", len(faults))
		}
		f := faults[0]
		if f.VA != va+12 || !f.Write || f.Prot != ProtRead || f.Depth != 1 {
			t.Errorf("fault = %+v", f)
		}
		if got := p.Peek(va+12, 4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
			t.Errorf("store lost after retry: %v", got)
		}
		if p.PageFaults != 1 {
			t.Errorf("PageFaults = %d", p.PageFaults)
		}
	})
	e.RunAll()
}

func TestMprotectNoneFaultsBothWays(t *testing.T) {
	e, m := newM(t)
	m.Spawn("p", func(p *Process) {
		va := p.MapPages(1, 0)
		p.Poke(va, []byte{9, 8, 7, 6})
		p.Mprotect(va, 1, ProtNone)

		var reads, writes int
		p.OnPageFault(func(p *Process, f PageFault) {
			if f.Write {
				writes++
				p.Mprotect(va, 1, ProtRW)
			} else {
				reads++
				p.Mprotect(va, 1, ProtRead)
			}
		})

		if v := p.ReadWord(va); v != 0x06070809 {
			t.Errorf("ReadWord after fault = %#x", v)
		}
		if reads != 1 || writes != 0 {
			t.Errorf("after read: reads=%d writes=%d", reads, writes)
		}
		// Page is now ProtRead; a store faults again.
		p.WriteWord(va, 0x11223344)
		if reads != 1 || writes != 1 {
			t.Errorf("after write: reads=%d writes=%d", reads, writes)
		}
		if v := p.PeekWord(va); v != 0x11223344 {
			t.Errorf("word after write retry = %#x", v)
		}
	})
	e.RunAll()
}

// TestFaultRetriesUntilFixed exercises freeze-with-retry: a handler that
// only fixes the mapping on its third invocation sees the same access fault
// three times, and the access still completes.
func TestFaultRetriesUntilFixed(t *testing.T) {
	e, m := newM(t)
	m.Spawn("p", func(p *Process) {
		va := p.MapPages(1, 0)
		p.Mprotect(va, 1, ProtNone)
		calls := 0
		p.OnPageFault(func(p *Process, f PageFault) {
			calls++
			if calls == 3 {
				p.Mprotect(va, 1, ProtRW)
			}
		})
		start := p.P.Now()
		p.WriteBytes(va, []byte{0xaa})
		if calls != 3 {
			t.Errorf("handler ran %d times, want 3", calls)
		}
		if got := p.Peek(va, 1); got[0] != 0xaa {
			t.Errorf("store lost: %v", got)
		}
		// Each fault charges the upcall cost.
		if el := p.P.Now().Sub(start); el < 3*hw.PageFaultUpcall {
			t.Errorf("elapsed %v < 3 upcalls", el)
		}
	})
	e.RunAll()
}

// TestNestedFault has the handler for page A touch protected page B,
// faulting again from inside the handler; both faults resolve and the
// depths are reported correctly.
func TestNestedFault(t *testing.T) {
	e, m := newM(t)
	m.Spawn("p", func(p *Process) {
		a := p.MapPages(1, 0)
		b := p.MapPages(1, 0)
		p.Mprotect(a, 1, ProtNone)
		p.Mprotect(b, 1, ProtNone)

		var depths []int
		p.OnPageFault(func(p *Process, f PageFault) {
			depths = append(depths, f.Depth)
			if PageOf(f.VA) == PageOf(a) {
				// Resolving A requires reading B — a nested fault.
				p.WriteWord(b, p.ReadWord(b)+1)
				p.Mprotect(a, 1, ProtRW)
				return
			}
			// Minimal upgrade for B, so its read and write each fault.
			if f.Write {
				p.Mprotect(b, 1, ProtRW)
			} else {
				p.Mprotect(b, 1, ProtRead)
			}
		})

		p.WriteWord(a, 42)
		// Depth 1: the store to A. Depth 2 twice: the handler's read of B
		// (ProtNone → upgraded to ProtRead) and then its store to B
		// (ProtRead → upgraded to ProtRW), both nested inside A's handler.
		if want := []int{1, 2, 2}; len(depths) != 3 || depths[0] != want[0] || depths[1] != want[1] || depths[2] != want[2] {
			t.Errorf("depths = %v, want %v", depths, want)
		}
		if p.PeekWord(a) != 42 || p.PeekWord(b) != 1 {
			t.Errorf("a=%d b=%d", p.PeekWord(a), p.PeekWord(b))
		}
	})
	e.RunAll()
}

// TestProtectionRestoredAfterRetry: after a fault is serviced and the access
// retried, re-restricting the page makes the next access fault again — the
// retry does not leave a stale translation behind.
func TestProtectionRestoredAfterRetry(t *testing.T) {
	e, m := newM(t)
	m.Spawn("p", func(p *Process) {
		va := p.MapPages(1, 0)
		faults := 0
		p.OnPageFault(func(p *Process, f PageFault) {
			faults++
			p.Mprotect(va, 1, ProtRW)
		})
		for round := 0; round < 3; round++ {
			p.Mprotect(va, 1, ProtRead)
			p.WriteWord(va, uint32(round))
			if protOf(p, va) != ProtRW {
				t.Errorf("round %d: prot = %v", round, protOf(p, va))
			}
		}
		if faults != 3 {
			t.Errorf("faults = %d, want 3 (one per restored round)", faults)
		}
	})
	e.RunAll()
}

// TestCopyVAChecksSource: CopyVA enforces read protection on its source
// range (the write side goes through WriteBytes, checked there).
func TestCopyVAChecksSource(t *testing.T) {
	e, m := newM(t)
	m.Spawn("p", func(p *Process) {
		src := p.MapPages(1, 0)
		dst := p.MapPages(1, 0)
		p.Poke(src, []byte{1, 2, 3, 4})
		p.Mprotect(src, 1, ProtNone)
		faulted := false
		p.OnPageFault(func(p *Process, f PageFault) {
			if f.Write {
				t.Errorf("source check reported a write fault: %+v", f)
			}
			faulted = true
			p.Mprotect(src, 1, ProtRead)
		})
		p.CopyVA(dst, src, 4)
		if !faulted {
			t.Error("CopyVA read through ProtNone without faulting")
		}
		if got := p.Peek(dst, 4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
			t.Errorf("copy corrupted: %v", got)
		}
	})
	e.RunAll()
}

// TestMprotectDefaultRW: mapped pages default to full access and Mprotect
// back to ProtRW clears the override (the prot table stays empty for
// ordinary processes).
func TestMprotectDefaultRW(t *testing.T) {
	e, m := newM(t)
	m.Spawn("p", func(p *Process) {
		va := p.MapPages(2, 0)
		if protOf(p, va) != ProtRW {
			t.Errorf("default prot = %v", protOf(p, va))
		}
		p.Mprotect(va, 2, ProtNone)
		p.Mprotect(va, 2, ProtRW)
		if _, prot, _ := walkPages(p); len(prot) != 0 {
			t.Errorf("protection overrides not cleared: %v", prot)
		}
		p.WriteWord(va, 7) // no handler installed; must not fault
	})
	e.RunAll()
}
