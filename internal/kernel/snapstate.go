// Snapshot state surface: complete, ordered, deterministic dumps of the
// kernel's mutable data state — the frame allocator, the PID counter, and
// every process's page table, protection overrides, heap cursors, and
// signal-delivery flags. internal/snap encodes these structs; this file
// owns gathering them in a stable order (every dump walks the page table
// in virtual-page order) and re-installing them onto a rebuilt world.
package kernel

import (
	"fmt"

	"shrimp/internal/mem"
)

// MachineState is the machine-wide allocator state.
type MachineState struct {
	NextFrame mem.PFN
	// FreedFrames is the LIFO free stack, bottom first — order matters:
	// AllocFrame pops from the end, and replay identity requires the
	// restored allocator to hand out the same frames in the same order.
	FreedFrames []mem.PFN
	NextPID     int
	IRQRaised   int64
}

// SnapState dumps the machine's allocator state.
func (m *Machine) SnapState() MachineState {
	st := MachineState{
		NextFrame: m.nextFrame,
		NextPID:   m.nextPID,
		IRQRaised: m.IRQRaised,
	}
	st.FreedFrames = append(st.FreedFrames, m.freedFrames...)
	return st
}

// RestoreState installs a captured allocator state.
func (m *Machine) RestoreState(st MachineState) {
	m.nextFrame = st.NextFrame
	m.freedFrames = append(m.freedFrames[:0], st.FreedFrames...)
	m.nextPID = st.NextPID
	m.IRQRaised = st.IRQRaised
}

// Procs returns every process ever spawned on the machine, in spawn order.
func (m *Machine) Procs() []*Process { return m.procs }

// PTSlot is one page-table entry in a dump, ordered by virtual page.
type PTSlot struct {
	VPN   VPN
	Frame mem.PFN
	Flags PTEFlags
}

// ProtSlot is one protection override in a dump, ordered by virtual page.
type ProtSlot struct {
	VPN  VPN
	Prot Prot
}

// ProcessImage is one process's complete data state. The running goroutine
// is not part of it — a process restores onto a freshly spawned body — but
// everything the kernel tracks for it is.
type ProcessImage struct {
	PID     int
	Name    string
	PT      []PTSlot
	Prot    []ProtSlot
	AUPages []VPN
	NextVA  VA
	HeapVA  VA
	HeapEnd VA
	HeapWT  bool
	Blocked bool
	// PendingSignals counts queued-but-undelivered signals. Signal payloads
	// are arbitrary Go values and cannot be serialized; capture therefore
	// requires an empty queue and this field exists so a restore can verify
	// it got one.
	PendingSignals int
	PageFaults     int64
	Exited         bool
}

// SnapImage dumps the process's data state in deterministic order.
func (p *Process) SnapImage() ProcessImage {
	img := ProcessImage{
		PID:            p.PID,
		Name:           p.Name,
		NextVA:         p.nextVA,
		HeapVA:         p.heapVA,
		HeapEnd:        p.heapEnd,
		HeapWT:         p.heapWT,
		Blocked:        p.blocked,
		PendingSignals: len(p.sigQueue),
		PageFaults:     p.PageFaults,
		Exited:         p.exited,
	}
	for ci, c := range p.pages {
		if c == nil {
			continue
		}
		for i := range c {
			e, vpn := &c[i], VPN(ci<<ptChunkShift+i)
			if e.mapped {
				img.PT = append(img.PT, PTSlot{VPN: vpn, Frame: e.pte.Frame, Flags: e.pte.Flags})
			}
			if e.prot != ProtRW {
				img.Prot = append(img.Prot, ProtSlot{VPN: vpn, Prot: e.prot})
			}
			if e.au {
				img.AUPages = append(img.AUPages, vpn)
			}
		}
	}
	return img
}

// InstallImage overwrites the process's data state with a captured image.
// PID and Name belong to Spawn and are not touched; a caller restoring a
// whole world verifies them against the image instead (see VerifyImage).
func (p *Process) InstallImage(img ProcessImage) error {
	if img.PendingSignals != 0 {
		return fmt.Errorf("kernel: image of %q carries %d pending signals; signal payloads are not restorable", img.Name, img.PendingSignals)
	}
	p.pages = nil
	for _, s := range img.PT {
		e := p.entryW(s.VPN)
		e.pte, e.mapped = PTE{Frame: s.Frame, Flags: s.Flags}, true
	}
	for _, s := range img.Prot {
		p.entryW(s.VPN).prot = s.Prot
	}
	for _, vpn := range img.AUPages {
		p.entryW(vpn).au = true
	}
	p.nextVA = img.NextVA
	p.heapVA = img.HeapVA
	p.heapEnd = img.HeapEnd
	p.heapWT = img.HeapWT
	p.blocked = img.Blocked
	p.PageFaults = img.PageFaults
	return nil
}

// VerifyImage checks that the process's identity and liveness match the
// image it is about to receive — the recipe-drift tripwire for world
// restore: a rebuilt world must have spawned the same processes in the
// same order before state installation makes any sense.
func (p *Process) VerifyImage(img ProcessImage) error {
	if p.PID != img.PID || p.Name != img.Name {
		return fmt.Errorf("kernel: process mismatch: have pid %d %q, image pid %d %q", p.PID, p.Name, img.PID, img.Name)
	}
	if p.exited != img.Exited {
		return fmt.Errorf("kernel: process %q liveness mismatch: exited=%v, image %v", p.Name, p.exited, img.Exited)
	}
	return nil
}
