// Snapshot state surface for the NIC: the programmed page tables (OPT and
// IPT), automatic-update bindings, fault flags, and traffic counters, in
// deterministic order. Transfer machinery in flight — an open combined
// packet, queued outgoing packets, busy DU jobs, undelivered incoming
// packets — is goroutine- and callback-entangled and is NOT serializable;
// SnapState therefore refuses a board that is not idle, which is exactly
// the quiesced-world contract internal/snap captures under.
//
// IPT tags are opaque references to daemon export records; a dump records
// only their presence, and a restored daemon re-installs them when its own
// export table is rebuilt. RestoreState installs tagless entries first, so
// restore order is NIC before daemon.
package nic

import (
	"fmt"

	"shrimp/internal/mem"
)

// OPTSlot is one programmed outgoing page-table entry.
type OPTSlot struct {
	Idx int
	E   OPTEntry
}

// IPTSlot is one programmed incoming page-table entry. HasTag records
// whether an export tag was installed; the tag itself is re-established by
// the daemon's restore.
type IPTSlot struct {
	F         mem.PFN
	Enable    bool
	Interrupt bool
	FastNote  bool
	HasTag    bool
}

// AUSlot is one automatic-update binding (local frame -> OPT index).
type AUSlot struct {
	F   mem.PFN
	Idx int
}

// State is a NIC's complete restorable state.
type State struct {
	OPTSize  int
	OPT      []OPTSlot // valid entries, ascending index
	Reserved []int     // OPT indices held by AllocOPT, ascending
	IPT      []IPTSlot // programmed entries, ascending frame
	AU       []AUSlot  // ascending frame
	Frozen   bool
	Dead     bool

	PacketsOut, PacketsIn, Faults, ForcedFaults int64
	OutQPeak                                    int
}

// SnapState dumps the board's state, refusing if any transfer machinery is
// in flight (quiesce first; see package comment).
func (n *NIC) SnapState() (State, error) {
	if !n.OutgoingIdle() {
		return State{}, fmt.Errorf("nic %d: snapshot of busy outgoing path", n.ID)
	}
	if !n.IncomingIdle() {
		return State{}, fmt.Errorf("nic %d: snapshot of busy incoming path", n.ID)
	}
	if n.outStalled {
		return State{}, fmt.Errorf("nic %d: snapshot under an injected outgoing stall", n.ID)
	}
	st := State{
		OPTSize:      n.optCap,
		Frozen:       n.frozen,
		Dead:         n.dead,
		PacketsOut:   n.PacketsOut,
		PacketsIn:    n.PacketsIn,
		Faults:       n.Faults,
		ForcedFaults: n.ForcedFaults,
		OutQPeak:     n.OutQPeak,
	}
	for i, e := range n.opt {
		if e.Valid {
			st.OPT = append(st.OPT, OPTSlot{Idx: i, E: e})
		}
		if n.optUsed[i] {
			st.Reserved = append(st.Reserved, i)
		}
	}
	for ci, c := range n.ipt {
		if c == nil {
			continue
		}
		for i, e := range c {
			if e == (IPTEntry{}) {
				continue
			}
			st.IPT = append(st.IPT, IPTSlot{
				F:         mem.PFN(ci<<iptChunkShift + i),
				Enable:    e.Enable,
				Interrupt: e.Interrupt,
				FastNote:  e.FastNotify,
				HasTag:    e.Tag != nil,
			})
		}
	}
	for ci, c := range n.au {
		if c == nil {
			continue
		}
		for i, v := range c {
			if v != 0 {
				st.AU = append(st.AU, AUSlot{F: mem.PFN(ci<<iptChunkShift + i), Idx: int(v) - 1})
			}
		}
	}
	return st, nil
}

// RestoreState installs a captured state onto a freshly built board. IPT
// tags are installed nil; the daemon's restore re-tags exported pages.
func (n *NIC) RestoreState(st State) error {
	if st.OPTSize != n.optCap {
		return fmt.Errorf("nic %d: OPT geometry mismatch: have %d entries, image %d", n.ID, n.optCap, st.OPTSize)
	}
	if st.Dead {
		return fmt.Errorf("nic %d: restoring a crashed board image", n.ID)
	}
	for _, s := range st.OPT {
		n.SetOPT(s.Idx, s.E)
	}
	for _, i := range st.Reserved {
		n.growOPT(i)
		n.optUsed[i] = true
	}
	for _, s := range st.IPT {
		n.SetIPT(s.F, IPTEntry{Enable: s.Enable, Interrupt: s.Interrupt, FastNotify: s.FastNote})
	}
	for _, s := range st.AU {
		n.BindAU(s.F, s.Idx)
	}
	n.frozen = st.Frozen
	n.PacketsOut = st.PacketsOut
	n.PacketsIn = st.PacketsIn
	n.Faults = st.Faults
	n.ForcedFaults = st.ForcedFaults
	n.OutQPeak = st.OutQPeak
	return nil
}
