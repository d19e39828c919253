package daemon

import (
	"strings"
	"testing"
	"time"

	"shrimp/internal/ether"
	"shrimp/internal/kernel"
	"shrimp/internal/mem"
	"shrimp/internal/mesh"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
)

// rig builds a 2-node system with daemons (no vmmc layer: these tests poke
// the daemon API directly).
type rig struct {
	eng    *sim.Engine
	msh    *mesh.Network
	eth    *ether.Network
	m      [2]*kernel.Machine
	n      [2]*nic.NIC
	d      [2]*Daemon
	faults []nic.ProtectionFault
}

func newRig(t *testing.T) *rig { return newRigSized(t, 4<<20, 512) }

// newRigSized is newRig with memBytes of DRAM and optEntries OPT entries
// per node.
func newRigSized(t *testing.T, memBytes, optEntries int) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine()}
	r.msh = mesh.NewDims(r.eng, []int{2, 1})
	r.eth = ether.New(r.eng, 2)
	for i := 0; i < 2; i++ {
		r.m[i] = kernel.NewMachine(i, r.eng, memBytes)
		r.n[i] = nic.New(r.m[i], r.msh, mesh.NodeID(i), optEntries)
		r.d[i] = New(i, r.m[i], r.n[i], r.msh, r.eth)
		r.d[i].FaultHook = func(f nic.ProtectionFault) { r.faults = append(r.faults, f) }
	}
	return r
}

type notifyRec struct{ srcs []int }

func (n *notifyRec) NotifyArrival(src int) { n.srcs = append(n.srcs, src) }

func (n *notifyRec) FastArrival(src int) { n.srcs = append(n.srcs, src) }

func TestExportImportLifecycle(t *testing.T) {
	r := newRig(t)
	var expRec *ExportRec
	exported := sim.NewCond(r.eng)
	r.m[1].Spawn("exporter", func(p *kernel.Process) {
		va := p.MapPages(2, 0)
		var err error
		expRec, err = r.d[1].Export(p, "buf", va, 2, false, false, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		exported.Broadcast()
		// IPT must be enabled on both frames.
		for i := 0; i < 2; i++ {
			pte, _ := p.PTEOf(va + kernel.VA(i*4096))
			if !r.n[1].GetIPT(pte.Frame).Enable {
				t.Error("IPT not enabled after export")
			}
			if pte.Flags&kernel.FlagPinned == 0 {
				t.Error("pages not pinned")
			}
		}
	})
	r.m[0].Spawn("importer", func(p *kernel.Process) {
		for expRec == nil {
			exported.Wait(p.P)
		}
		imp, err := r.d[0].Import(p, 1, "buf")
		if err != nil {
			t.Error(err)
			return
		}
		if imp.Pages != 2 || imp.Exporter != 1 {
			t.Errorf("import rec %+v", imp)
		}
		// OPT entries must point at node 1.
		e := r.n[0].GetOPT(imp.OPTBase)
		if !e.Valid || e.DstNode != 1 {
			t.Errorf("OPT entry %+v", e)
		}
		if r.d[0].Imports() != 1 {
			t.Error("import not recorded")
		}
		if err := r.d[0].Unimport(p, imp); err != nil {
			t.Error(err)
		}
		if r.d[0].Imports() != 0 {
			t.Error("import record leaked")
		}
		if r.n[0].GetOPT(imp.OPTBase).Valid {
			t.Error("OPT entry not invalidated after unimport")
		}
		// Double unimport errors.
		if err := r.d[0].Unimport(p, imp); err == nil {
			t.Error("double unimport accepted")
		}
	})
	r.eng.RunAll()
	if len(r.faults) != 0 {
		t.Fatalf("unexpected protection faults: %v", r.faults)
	}
}

func TestImportUnknownAndDenied(t *testing.T) {
	r := newRig(t)
	ok := false
	r.m[1].Spawn("exporter", func(p *kernel.Process) {
		va := p.MapPages(1, 0)
		if _, err := r.d[1].Export(p, "private", va, 1, false, false, nil, []int{3}); err != nil {
			t.Error(err)
		}
	})
	r.m[0].Spawn("importer", func(p *kernel.Process) {
		p.P.Sleep(5 * time.Millisecond)
		if _, err := r.d[0].Import(p, 1, "nope"); err == nil ||
			!strings.Contains(err.Error(), "no export") {
			t.Errorf("unknown export: %v", err)
		}
		if _, err := r.d[0].Import(p, 1, "private"); err == nil ||
			!strings.Contains(err.Error(), "denies") {
			t.Errorf("denied export: %v", err)
		}
		ok = true
	})
	r.eng.RunAll()
	if !ok {
		t.Fatal("importer never ran")
	}
}

func TestDuplicateExportName(t *testing.T) {
	r := newRig(t)
	r.m[1].Spawn("exporter", func(p *kernel.Process) {
		va := p.MapPages(2, 0)
		if _, err := r.d[1].Export(p, "x", va, 1, false, false, nil, nil); err != nil {
			t.Error(err)
		}
		if _, err := r.d[1].Export(p, "x", va+4096, 1, false, false, nil, nil); err == nil {
			t.Error("duplicate export name accepted")
		}
	})
	r.eng.RunAll()
}

func TestExportValidation(t *testing.T) {
	r := newRig(t)
	r.m[1].Spawn("exporter", func(p *kernel.Process) {
		va := p.MapPages(1, 0)
		if _, err := r.d[1].Export(p, "a", va+4, 1, false, false, nil, nil); err == nil {
			t.Error("unaligned export accepted")
		}
		if _, err := r.d[1].Export(p, "b", va, 2, false, false, nil, nil); err == nil {
			t.Error("export past mapping accepted")
		}
	})
	r.eng.RunAll()
}

func TestUnexportRevokesRemoteImports(t *testing.T) {
	r := newRig(t)
	var expRec *ExportRec
	var imp *ImportRec
	stage := sim.NewCond(r.eng)
	state := 0
	r.m[1].Spawn("exporter", func(p *kernel.Process) {
		va := p.MapPages(1, 0)
		var err error
		expRec, err = r.d[1].Export(p, "buf", va, 1, false, false, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		state = 1
		stage.Broadcast()
		for state < 2 {
			stage.Wait(p.P)
		}
		// Revoke while the remote side holds an import.
		if err := r.d[1].Unexport(p, expRec); err != nil {
			t.Error(err)
		}
		pte, _ := p.PTEOf(va)
		if r.n[1].GetIPT(pte.Frame).Enable {
			t.Error("IPT still enabled after unexport")
		}
		state = 3
		stage.Broadcast()
	})
	r.m[0].Spawn("importer", func(p *kernel.Process) {
		for state < 1 {
			stage.Wait(p.P)
		}
		var err error
		imp, err = r.d[0].Import(p, 1, "buf")
		if err != nil {
			t.Error(err)
			return
		}
		state = 2
		stage.Broadcast()
		for state < 3 {
			stage.Wait(p.P)
		}
		// The revocation must have freed our OPT entries.
		if r.n[0].GetOPT(imp.OPTBase).Valid {
			t.Error("importer's OPT entries survive unexport")
		}
		if r.d[0].Imports() != 0 {
			t.Error("import record survives unexport")
		}
	})
	r.eng.RunAll()
	if r.d[1].Exports() != 0 {
		t.Fatal("export record leaked")
	}
}

func TestNotificationRouting(t *testing.T) {
	r := newRig(t)
	rec := &notifyRec{}
	var frame mem.PFN
	r.m[1].Spawn("exporter", func(p *kernel.Process) {
		va := p.MapPages(1, 0)
		if _, err := r.d[1].Export(p, "buf", va, 1, true, false, rec, nil); err != nil {
			t.Error(err)
			return
		}
		pte, _ := p.PTEOf(va)
		frame = pte.Frame
	})
	r.eng.RunAll()
	// Fire the IRQ directly: the daemon must route it to the Notifiable.
	r.m[1].RaiseIRQ(nic.VecNotify, &nic.Notify{Frame: frame, Tag: r.n[1].GetIPT(frame).Tag, Src: 0})
	r.eng.RunAll()
	if len(rec.srcs) != 1 || rec.srcs[0] != 0 {
		t.Fatalf("notification routing: %v", rec.srcs)
	}
}

func TestBindAUConfiguresEverything(t *testing.T) {
	r := newRig(t)
	done := false
	var expOK bool
	r.m[1].Spawn("exporter", func(p *kernel.Process) {
		va := p.MapPages(2, 0)
		_, err := r.d[1].Export(p, "buf", va, 2, false, false, nil, nil)
		expOK = err == nil
	})
	r.m[0].Spawn("binder", func(p *kernel.Process) {
		p.P.Sleep(5 * time.Millisecond)
		if !expOK {
			t.Error("export failed")
			return
		}
		imp, err := r.d[0].Import(p, 1, "buf")
		if err != nil {
			t.Error(err)
			return
		}
		local := p.MapPages(2, 0)
		if err := r.d[0].BindAU(p, imp, local, 2, 0, true, false); err != nil {
			t.Error(err)
			return
		}
		// OPT entries reconfigured for combining; pages write-through
		// and marked AU for the cost model.
		e := r.n[0].GetOPT(imp.OPTBase)
		if !e.Combine || !e.CombineTimer {
			t.Errorf("OPT not configured for combining: %+v", e)
		}
		pte, _ := p.PTEOf(local)
		if pte.Flags&kernel.FlagWriteThrough == 0 {
			t.Error("bound page not write-through")
		}
		if !p.IsAUPage(kernel.PageOf(local)) {
			t.Error("cost model not informed of AU binding")
		}
		// Unbind restores everything.
		r.d[0].UnbindAU(p, imp, local, 2)
		pte, _ = p.PTEOf(local)
		if pte.Flags != 0 || p.IsAUPage(kernel.PageOf(local)) {
			t.Error("unbind did not restore page state")
		}
		// Range validation.
		if err := r.d[0].BindAU(p, imp, local, 2, 1, true, false); err == nil {
			t.Error("out-of-range BindAU accepted")
		}
		done = true
	})
	r.eng.RunAll()
	if !done {
		t.Fatal("binder never finished")
	}
}

func TestFaultHookReceivesViolation(t *testing.T) {
	r := newRig(t)
	r.m[0].Spawn("sender", func(p *kernel.Process) {
		// Hand-craft an OPT entry to a page whose IPT is off.
		idx, err := r.n[0].AllocOPT(1)
		if err != nil {
			t.Error(err)
			return
		}
		r.n[0].SetOPT(idx, nic.OPTEntry{Valid: true, DstNode: 1, DstPFN: 30})
		job := r.n[0].SubmitDU([]nic.DUChunk{nic.MakeDUChunk(0x4000, idx, 0, 16, false)})
		job.Wait(p.P)
	})
	r.eng.RunAll()
	if len(r.faults) != 1 || r.faults[0].Frame != 30 {
		t.Fatalf("fault hook: %v", r.faults)
	}
	if !r.n[1].Frozen() {
		t.Fatal("receive path should be frozen")
	}
	r.n[1].Unfreeze(true)
}
