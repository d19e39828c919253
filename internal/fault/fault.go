// Package fault is the deterministic fault injector for the SHRIMP
// simulation. A Plan describes what goes wrong — per-packet link faults
// (drop, corrupt, delay, reorder), scheduled NIC faults (receive-freeze
// storms, outgoing-FIFO stalls), and whole-node crashes with optional
// restart — and an Injector draws every per-packet decision from its own
// seeded rand source. Network partitions are armed at runtime with
// Injector.Sever and lifted with Injector.Heal, so a harness can time a cut
// against workload phases; the membership check consumes no randomness, so
// arming a cut does not shift the rand stream of uncut packets. The
// injector never reads the wall clock and consumes randomness in engine
// event order, so a given (seed, plan) pair, with the same Sever/Heal calls
// at the same points, replays bit-for-bit: sim.CheckDeterminism holds with
// fault injection enabled.
//
// The package is a leaf: it imports nothing from the simulation so that
// mesh, nic, and cluster can all depend on it without cycles. Virtual
// times in a Plan are time.Durations measured from simulation start.
package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// LinkFaults gives the per-packet fault probabilities applied to every
// packet crossing the mesh backplane. Probabilities are evaluated in the
// order drop, corrupt, delay, reorder; at most one fault hits a packet.
type LinkFaults struct {
	// DropProb is the probability a packet vanishes on a link.
	DropProb float64
	// CorruptProb is the probability a packet has wire bytes flipped.
	// With the reliability sublayer on, the receiver's checksum catches
	// it and go-back-N recovers; without it the packet is lost.
	CorruptProb float64
	// DelayProb adds extra latency (uniform in (0, DelayMax]) that still
	// preserves per-pair FIFO order: later packets queue behind it.
	DelayProb float64
	// ReorderProb adds the same extra latency but lets later packets
	// overtake — the only way the mesh ever violates FIFO delivery.
	ReorderProb float64
	// DelayMax bounds the extra latency for Delay and Reorder faults.
	// Zero means 10us.
	DelayMax time.Duration
}

// NICFaultKind selects what a scheduled NIC fault does.
type NICFaultKind int

const (
	// FreezeStorm forces Count spurious receive protection faults, Gap
	// apart, starting at At. Each one freezes the incoming path and
	// raises the protection interrupt; arriving packets queue behind the
	// freeze until the daemon unfreezes.
	FreezeStorm NICFaultKind = iota
	// OutStall blocks the outgoing-FIFO arbiter for Dur starting at At,
	// so packetized data piles up in the outgoing FIFO (overflow
	// pressure) before draining when the stall lifts.
	OutStall
)

// String names the kind for reports.
func (k NICFaultKind) String() string {
	switch k {
	case FreezeStorm:
		return "freeze-storm"
	case OutStall:
		return "out-stall"
	}
	return fmt.Sprintf("NICFaultKind(%d)", int(k))
}

// NICFault schedules one NIC-level fault on one node.
type NICFault struct {
	Node  int
	Kind  NICFaultKind
	At    time.Duration // virtual time of the first event
	Count int           // FreezeStorm: number of forced faults (min 1)
	Gap   time.Duration // FreezeStorm: spacing between faults
	Dur   time.Duration // OutStall: how long the arbiter is blocked
}

// Crash schedules a whole-node crash at a virtual time. The node stays
// dead; a harness that wants it back calls cluster.RestartNode.
type Crash struct {
	Node int
	At   time.Duration
}

// Plan is a pluggable fault plan: everything that will go wrong in a run.
// The zero Plan injects nothing.
type Plan struct {
	Name    string
	Link    LinkFaults
	NIC     []NICFault
	Crashes []Crash
}

// String renders a compact description for logs and chaos reports.
func (p Plan) String() string {
	var b strings.Builder
	name := p.Name
	if name == "" {
		name = "unnamed"
	}
	fmt.Fprintf(&b, "%s: link(drop=%.3g corrupt=%.3g delay=%.3g reorder=%.3g)",
		name, p.Link.DropProb, p.Link.CorruptProb, p.Link.DelayProb, p.Link.ReorderProb)
	for _, f := range p.NIC {
		fmt.Fprintf(&b, " nic(n%d %s)", f.Node, f.Kind)
	}
	for _, c := range p.Crashes {
		fmt.Fprintf(&b, " crash(n%d@%v)", c.Node, c.At)
	}
	return b.String()
}

// Validate checks the plan against a cluster of nodes nodes and returns an
// error naming the first malformed entry: link probabilities outside [0,1]
// or summing past 1 (at most one fault hits a packet), negative times, and
// NIC faults or crashes naming nonexistent nodes. Constructors call it so a
// bad plan fails loudly at build time instead of silently injecting
// nothing.
func (p Plan) Validate(nodes int) error {
	l := p.Link
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"drop", l.DropProb}, {"corrupt", l.CorruptProb},
		{"delay", l.DelayProb}, {"reorder", l.ReorderProb},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("link: %s probability %g outside [0,1]", pr.name, pr.v)
		}
	}
	if sum := l.DropProb + l.CorruptProb + l.DelayProb + l.ReorderProb; sum > 1 {
		return fmt.Errorf("link: fault probabilities sum to %g > 1", sum)
	}
	if l.DelayMax < 0 {
		return fmt.Errorf("link: negative DelayMax %v", l.DelayMax)
	}
	for i, f := range p.NIC {
		what := fmt.Sprintf("nic[%d]", i)
		if f.Node < 0 || f.Node >= nodes {
			return fmt.Errorf("%s names node %d, cluster has nodes 0..%d", what, f.Node, nodes-1)
		}
		if f.At < 0 || f.Gap < 0 || f.Dur < 0 || f.Count < 0 {
			return fmt.Errorf("%s: negative schedule field", what)
		}
	}
	for i, c := range p.Crashes {
		what := fmt.Sprintf("crash[%d]", i)
		if c.Node < 0 || c.Node >= nodes {
			return fmt.Errorf("%s names node %d, cluster has nodes 0..%d", what, c.Node, nodes-1)
		}
		if c.At < 0 {
			return fmt.Errorf("%s: negative schedule field", what)
		}
	}
	return nil
}

// Action is the fate the injector assigns to one packet.
type Action int

const (
	// Pass delivers the packet untouched.
	Pass Action = iota
	// Drop loses the packet on a link.
	Drop
	// Corrupt flips wire bytes; delivery depends on the checksum.
	Corrupt
	// Delay adds latency but preserves FIFO order.
	Delay
	// Reorder adds latency and lets later packets overtake.
	Reorder
	// Sever drops the packet because an armed partition cuts its path.
	// Unlike Drop it consumes no randomness: a cut link loses everything.
	Sever
)

// String names the action for counters and reports.
func (a Action) String() string {
	switch a {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Delay:
		return "delay"
	case Reorder:
		return "reorder"
	case Sever:
		return "sever"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Injector draws fault decisions for one run from a seeded source. All
// methods must be called from simulation context (engine goroutine), in
// event order; the consumed randomness is then replay-stable.
type Injector struct {
	plan Plan
	rng  *rand.Rand
	// cut is the node set Sever cut off, nil when healed; with oneWay only
	// traffic leaving it is severed.
	cut    map[int]bool
	oneWay bool

	// Tallies of what was injected, for reports and tests.
	Dropped   int64
	Corrupted int64
	Delayed   int64
	Reordered int64
	AcksLost  int64
	Severed   int64
}

// NewInjector builds an injector for the plan with its own rand stream.
func NewInjector(seed int64, plan Plan) *Injector {
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(seed))}
}

// Sever arms a partition cutting set off from the rest of the cluster
// until Heal is called. Both fabrics honor the cut — mesh packets
// (reliability-sublayer acks included) and Ethernet datagrams crossing it
// vanish — so everything above sees a true partition, not just loss. With
// oneWay only traffic from set toward the rest is severed; packets flowing
// into the set still arrive (the gray-failure shape where a node hears the
// world but cannot be heard). Harnesses time the cut against workload
// phases ("after warmup, isolate the primary"). Call from simulation
// context, in event order — the cut itself is rand-free, so arming it is
// replay-stable. At most one partition is armed at a time; a second Sever
// replaces the first.
func (in *Injector) Sever(set []int, oneWay bool) {
	in.cut = make(map[int]bool, len(set))
	for _, n := range set {
		in.cut[n] = true
	}
	in.oneWay = oneWay
}

// Heal removes the partition armed by Sever.
func (in *Injector) Heal() { in.cut = nil }

// Cut reports whether the directed path src -> dst is severed by an armed
// partition. Pure and rand-free, so fabrics and quorum checks can consult
// it without perturbing the replay-stable randomness stream.
func (in *Injector) Cut(src, dst int) bool {
	if in == nil || in.cut == nil || in.cut[src] == in.cut[dst] {
		return false // healed, or both ends on the same side of the cut
	}
	return !in.oneWay || in.cut[src]
}

// CutEither reports whether either direction between a and b is severed —
// the "can these two nodes converse" question quorum checks ask.
func (in *Injector) CutEither(a, b int) bool {
	return in.Cut(a, b) || in.Cut(b, a)
}

// PathAction draws the fate of one data packet crossing the backplane on
// the directed path src -> dst, and the extra latency for Delay/Reorder
// actions. A path crossing an armed partition returns Sever without
// consuming any randomness, so arming a partition does not shift the rand
// stream of uncut traffic. Every other packet takes exactly one rand draw
// for its fate, or none under zero rates, so an idle injector is a digest
// no-op.
func (in *Injector) PathAction(src, dst int) (Action, time.Duration) {
	if in.Cut(src, dst) {
		in.Severed++
		return Sever, 0
	}
	l := in.plan.Link
	if l.DropProb == 0 && l.CorruptProb == 0 && l.DelayProb == 0 && l.ReorderProb == 0 {
		return Pass, 0
	}
	v := in.rng.Float64()
	switch {
	case v < l.DropProb:
		in.Dropped++
		return Drop, 0
	case v < l.DropProb+l.CorruptProb:
		in.Corrupted++
		return Corrupt, 0
	case v < l.DropProb+l.CorruptProb+l.DelayProb:
		in.Delayed++
		return Delay, in.extraDelay()
	case v < l.DropProb+l.CorruptProb+l.DelayProb+l.ReorderProb:
		in.Reordered++
		return Reorder, in.extraDelay()
	}
	return Pass, 0
}

// AckLost reports whether a link-level ack on the sideband path src -> dst
// is lost. A severed path always loses the ack without consuming
// randomness — a cut link carries nothing, sideband included; otherwise
// drop is the only failure mode on the sideband, at the plan's drop rate.
func (in *Injector) AckLost(src, dst int) bool {
	if in.Cut(src, dst) {
		in.Severed++
		return true
	}
	if in.plan.Link.DropProb == 0 {
		return false
	}
	if in.rng.Float64() < in.plan.Link.DropProb {
		in.AcksLost++
		return true
	}
	return false
}

// extraDelay draws the added latency for a Delay/Reorder fault: uniform in
// (0, DelayMax], never zero so the fault is observable. DelayMax defaults
// to 10us.
func (in *Injector) extraDelay() time.Duration {
	max := in.plan.Link.DelayMax
	if max <= 0 {
		max = 10 * time.Microsecond
	}
	return time.Duration(in.rng.Int63n(int64(max))) + 1
}

// CorruptBytes flips one to four bytes of an encoded packet in place.
// XORing with a non-zero mask guarantees the wire image really changed,
// so the receiver's checksum (or, rarely, a garbled-but-valid decode)
// decides its fate.
func (in *Injector) CorruptBytes(b []byte) {
	if len(b) == 0 {
		return
	}
	n := 1 + in.rng.Intn(4)
	for i := 0; i < n; i++ {
		pos := in.rng.Intn(len(b))
		mask := byte(1 + in.rng.Intn(255))
		b[pos] ^= mask
	}
}

// Injected reports whether the injector actually did anything this run.
func (in *Injector) Injected() int64 {
	return in.Dropped + in.Corrupted + in.Delayed + in.Reordered + in.AcksLost + in.Severed
}

// Summary renders the tallies for chaos reports.
func (in *Injector) Summary() string {
	return fmt.Sprintf("dropped=%d corrupted=%d delayed=%d reordered=%d acks-lost=%d severed=%d",
		in.Dropped, in.Corrupted, in.Delayed, in.Reordered, in.AcksLost, in.Severed)
}
