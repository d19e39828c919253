package mesh

import (
	"testing"
	"time"

	"shrimp/internal/fault"
	"shrimp/internal/sim"
)

// relRig builds a reliable mesh with an armed injector and a collector on
// the destination that records arrival order by DstOff.
func relRig(t *testing.T, plan fault.Plan) (*sim.Engine, *Network, *[]uint32) {
	t.Helper()
	e := sim.NewEngine()
	n := NewDims(e, []int{2, 2})
	n.EnableReliability()
	n.SetInjector(fault.NewInjector(7, plan))
	var got []uint32
	n.Attach(3, func(p *Packet) { got = append(got, p.DstOff) })
	n.Attach(0, func(p *Packet) {})
	return e, n, &got
}

// sendN streams count sequenced packets 0->3, DstOff carrying the index.
func sendN(e *sim.Engine, n *Network, count int) {
	e.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			n.Send(&Packet{Src: 0, Dst: 3, DstOff: uint32(i), Payload: []byte{byte(i)}})
		}
	})
}

// checkInOrder requires exactly-once, in-order delivery of 0..count-1 —
// the sublayer's acknowledged-delivery contract.
func checkInOrder(t *testing.T, got []uint32, count int) {
	t.Helper()
	if len(got) != count {
		t.Fatalf("delivered %d/%d packets", len(got), count)
	}
	for i, off := range got {
		if off != uint32(i) {
			t.Fatalf("position %d carries DstOff %d (out of order or duplicated)", i, off)
		}
	}
}

func TestReliabilityRecoversDrops(t *testing.T) {
	e, n, got := relRig(t, fault.Plan{Link: fault.LinkFaults{DropProb: 0.2}})
	sendN(e, n, 50)
	e.RunAll()
	checkInOrder(t, *got, 50)
	st := n.RelStats()
	if st.Retransmits == 0 {
		t.Fatal("20% drop produced no retransmissions")
	}
}

func TestReliabilityCatchesCorruption(t *testing.T) {
	e, n, got := relRig(t, fault.Plan{Link: fault.LinkFaults{CorruptProb: 0.2}})
	sendN(e, n, 50)
	e.RunAll()
	checkInOrder(t, *got, 50)
	st := n.RelStats()
	if st.ChecksumDrop == 0 {
		t.Fatal("20% corruption never tripped the wire checksum")
	}
	if st.Retransmits == 0 {
		t.Fatal("checksum-dropped packets were never retransmitted")
	}
}

func TestReliabilityRestoresOrderUnderReorder(t *testing.T) {
	e, n, got := relRig(t, fault.Plan{Link: fault.LinkFaults{
		ReorderProb: 0.3, DelayMax: 30 * time.Microsecond,
	}})
	sendN(e, n, 80)
	e.RunAll()
	checkInOrder(t, *got, 80)
	st := n.RelStats()
	// Go-back-N keeps no reorder buffer: overtaken packets are discarded
	// at the receiver and resent in order.
	if st.DupDrops == 0 {
		t.Fatal("reordering never exercised the go-back-N discard path")
	}
}

func TestReliabilityMixedFaults(t *testing.T) {
	e, n, got := relRig(t, fault.Plan{Link: fault.LinkFaults{
		DropProb: 0.05, CorruptProb: 0.05, DelayProb: 0.1, ReorderProb: 0.05,
	}})
	sendN(e, n, 100)
	e.RunAll()
	checkInOrder(t, *got, 100)
}

// TestFlowAbortsAfterMaxRetries: a 100%-lossy link is a dead peer; the
// sender must give up after relMaxRetries instead of retransmitting forever.
func TestFlowAbortsAfterMaxRetries(t *testing.T) {
	e, n, got := relRig(t, fault.Plan{Link: fault.LinkFaults{DropProb: 1}})
	sendN(e, n, 4)
	e.RunAll()
	if len(*got) != 0 {
		t.Fatalf("%d packets crossed a 100%%-lossy link", len(*got))
	}
	st := n.RelStats()
	if st.FlowsAborted != 1 {
		t.Fatalf("FlowsAborted = %d, want 1", st.FlowsAborted)
	}
	// A send on an aborted flow is dropped, not queued forever.
	e.Spawn("late", func(p *sim.Proc) {
		n.Send(&Packet{Src: 0, Dst: 3, Payload: []byte{0xff}})
	})
	e.RunAll()
	if len(*got) != 0 {
		t.Fatal("send on an aborted flow was delivered")
	}
}

// TestReliabilityZeroFaultZeroPerturbation: with no faults, the sublayer
// must not retransmit, discard, or duplicate anything — only ack.
func TestReliabilityZeroFaultZeroPerturbation(t *testing.T) {
	e, n, got := relRig(t, fault.Plan{})
	sendN(e, n, 20)
	e.RunAll()
	checkInOrder(t, *got, 20)
	st := n.RelStats()
	if st.Retransmits != 0 || st.DupDrops != 0 || st.ChecksumDrop != 0 || st.FlowsAborted != 0 {
		t.Fatalf("clean run perturbed: %+v", st)
	}
	if st.AcksSent == 0 {
		t.Fatal("no acks on a clean run")
	}
}

// TestReliabilityDeterministic: the faulted schedule itself must replay —
// the acceptance criterion behind sim.CheckDeterminism with injection on.
func TestReliabilityDeterministic(t *testing.T) {
	scenario := func() {
		e := sim.NewEngine()
		n := NewDims(e, []int{2, 2})
		n.EnableReliability()
		n.SetInjector(fault.NewInjector(11, fault.Plan{Link: fault.LinkFaults{
			DropProb: 0.1, CorruptProb: 0.05, ReorderProb: 0.1,
		}}))
		n.Attach(3, func(p *Packet) {})
		n.Attach(0, func(p *Packet) {})
		sendN(e, n, 40)
		e.RunAll()
	}
	sim.CheckDeterminism(t, scenario)
}
