package svm

import (
	"fmt"

	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/vmmc"
)

// handleFault is the region's page-fault upcall: the per-page state machine.
//
//	invalid --read--> read        (fetch from home)
//	invalid --write-> read-write  (fetch, then AU-bind to home)
//	read    --write-> read-write  (AU-bind to home, join dirty set)
//
// Pages homed here never leave the read/read-write states: the local frame
// is the home copy, so there is nothing to fetch and no binding to create —
// writes are plain local stores, which is why a good home assignment puts
// each page at its principal writer.
func (r *Region) handleFault(f kernel.PageFault) {
	g := int(f.VA-r.Base) / hw.Page
	home := r.homeOf(g)
	if !f.Write {
		r.Stats.ReadFaults++
		r.tc.Count(r.track, "fault.read", 1)
		r.fetch(g)
		r.state[g] = stRead
		r.p.Mprotect(r.pageVA(g), 1, kernel.ProtRead)
		return
	}
	r.Stats.WriteFaults++
	r.tc.Count(r.track, "fault.write", 1)
	if r.state[g] == stInvalid && home != r.me {
		// Upgrading an invalid page still needs the current contents:
		// only the words this node stores stream to the home, and local
		// reads of the page's other words must not see stale data.
		r.fetch(g)
	}
	if home != r.me && !r.bound[g] {
		// First write since joining: bind the local page to the home
		// copy. From here on the snoop hardware propagates every store;
		// the binding survives invalidations, so later upgrades are one
		// Mprotect.
		_, err := r.ep.BindAU(r.pageVA(g), r.dataImp[home], g, 1, vmmc.AUOpts{Combine: true})
		if err != nil {
			panic(fmt.Sprintf("svm: %s bind page %d to home %d: %v", r.Name, g, home, err)) //lint:allow transitive-panic revoked import means a peer died without the fault plan declaring it
		}
		r.bound[g] = true
	}
	r.dirty[g] = true
	r.state[g] = stRW
	r.p.Mprotect(r.pageVA(g), 1, kernel.ProtRW)
}

// fetch pulls the current copy of page g from its home.
func (r *Region) fetch(g int) {
	home := r.homeOf(g)
	if home == r.me {
		return
	}
	sp := r.tc.Begin(r.track, "fetch")
	r.request(home, opFetch, g, nil, true)
	r.Stats.Fetches++
	r.tc.Count(r.track, "fetch", 1)
	r.tc.Count(r.track, "fetch.bytes", hw.Page)
	sp.End()
}

// flushDirty is the release fence: make every dirty page's stores visible
// in its home copy before the release itself is announced. The AU fence
// (sleep past the snoop pipeline and combine timer, then a programmed-I/O
// flush of any open packet) pushes the last stores into the outgoing FIFO;
// the flush markers then trail the data on each sender-to-home FIFO, so a
// marker's acknowledgement proves the home copy is current.
func (r *Region) flushDirty(dirty []int) {
	homes := r.dirtyHomes(dirty)
	if len(homes) == 0 {
		return
	}
	sp := r.tc.Begin(r.track, "release.flush")
	r.p.P.Sleep(hw.AUSnoopDelay + hw.CombineTimeout + hw.PacketizeCost)
	_, end := r.ep.D.NIC.EISA().Reserve(hw.DUInitAccess)
	r.p.P.Sleep(end.Sub(r.p.P.Now()))
	r.ep.D.NIC.FlushAU()
	// Pipeline the markers: send them all, then collect the acks.
	seqs := make([]uint32, len(homes))
	for i, h := range homes {
		r.seq++
		seqs[i] = r.seq
		st := r.getStage()
		r.encodeWords(st+hw.WordSize, []uint32{opFlush, 0, 0})
		base := r.reqOff(r.me)
		if err := r.ep.Send(r.svcImp[h], (base+1)*hw.WordSize, st+hw.WordSize, 3*hw.WordSize); err != nil {
			panic(fmt.Sprintf("svm: %s flush marker to %d: %v", r.Name, h, err)) //lint:allow transitive-panic revoked import means a peer died without the fault plan declaring it
		}
		r.p.WriteWord(st, seqs[i])
		if err := r.ep.SendNotify(r.svcImp[h], base*hw.WordSize, st, hw.WordSize); err != nil {
			panic(fmt.Sprintf("svm: %s flush notify to %d: %v", r.Name, h, err)) //lint:allow transitive-panic revoked import means a peer died without the fault plan declaring it
		}
		r.putStage(st)
		r.Stats.FlushMarkers++
		r.tc.Count(r.track, "flush", 1)
	}
	for i, h := range homes {
		want := seqs[i]
		r.p.WaitWord(r.svcVA(r.ackOff(h)), func(v uint32) bool { return v == want })
	}
	sp.End()
}

// downgradeDirty ends the write interval: dirty pages drop to read-only so
// the next interval's first store faults again and rejoins the dirty set.
func (r *Region) downgradeDirty(dirty []int) {
	for _, g := range dirty {
		r.dirty[g] = false
		r.state[g] = stRead
		r.p.Mprotect(r.pageVA(g), 1, kernel.ProtRead)
	}
}

// invalidate applies incoming write notices: every noticed page not homed
// here loses its local copy and faults on next touch. Home pages stay
// valid — their frames received the writers' automatic updates and are
// authoritative by construction.
func (r *Region) invalidate(notices []int) {
	for _, g := range notices {
		if r.homeOf(g) == r.me || r.state[g] == stInvalid {
			continue
		}
		if r.dirty[g] {
			// Both this node and a remote wrote g in one interval: a
			// data race in the application. Drop our dirty claim; the
			// stores already streamed home via the binding.
			r.dirty[g] = false
		}
		r.state[g] = stInvalid
		r.p.Mprotect(r.pageVA(g), 1, kernel.ProtNone)
		r.Stats.Invalidations++
		r.tc.Count(r.track, "inval", 1)
	}
}
