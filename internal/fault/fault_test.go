package fault

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestReplayStable is the injector's core contract: two injectors built
// from the same (seed, plan) produce identical decision streams, so a
// faulted run replays bit-for-bit.
func TestReplayStable(t *testing.T) {
	plan := Plan{Link: LinkFaults{
		DropProb: 0.05, CorruptProb: 0.05, DelayProb: 0.1, ReorderProb: 0.1,
	}}
	a := NewInjector(42, plan)
	b := NewInjector(42, plan)
	for i := 0; i < 10000; i++ {
		actA, dA := a.PathAction(0, 1)
		actB, dB := b.PathAction(0, 1)
		if actA != actB || dA != dB {
			t.Fatalf("draw %d diverged: (%v,%v) vs (%v,%v)", i, actA, dA, actB, dB)
		}
		if a.AckLost(1, 0) != b.AckLost(1, 0) {
			t.Fatalf("ack draw %d diverged", i)
		}
		imgA := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		imgB := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		a.CorruptBytes(imgA)
		b.CorruptBytes(imgB)
		if !bytes.Equal(imgA, imgB) {
			t.Fatalf("corruption %d diverged: %x vs %x", i, imgA, imgB)
		}
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("tallies diverged: %q vs %q", a.Summary(), b.Summary())
	}
}

// TestSeedsDiffer guards against the injector ignoring its seed.
func TestSeedsDiffer(t *testing.T) {
	plan := Plan{Link: LinkFaults{DropProb: 0.5}}
	a, b := NewInjector(1, plan), NewInjector(2, plan)
	same := true
	for i := 0; i < 64; i++ {
		actA, _ := a.PathAction(0, 1)
		actB, _ := b.PathAction(0, 1)
		if actA != actB {
			same = false
		}
	}
	if same {
		t.Fatal("64 draws identical across different seeds")
	}
}

// TestZeroPlanInjectsNothing: the zero plan must be a true no-op — every
// packet passes and no randomness is consumed (so arming a nil-effect plan
// cannot perturb a run's digest).
func TestZeroPlanInjectsNothing(t *testing.T) {
	in := NewInjector(1, Plan{})
	for i := 0; i < 1000; i++ {
		if act, d := in.PathAction(0, 1); act != Pass || d != 0 {
			t.Fatalf("zero plan produced %v/%v", act, d)
		}
		if in.AckLost(1, 0) {
			t.Fatal("zero plan lost an ack")
		}
	}
	if in.Injected() != 0 {
		t.Fatalf("Injected() = %d", in.Injected())
	}
}

// TestProbabilityBands: certain probabilities yield certain actions, and
// each action increments its tally.
func TestProbabilityBands(t *testing.T) {
	cases := []struct {
		link  LinkFaults
		want  Action
		tally func(in *Injector) int64
	}{
		{LinkFaults{DropProb: 1}, Drop, func(in *Injector) int64 { return in.Dropped }},
		{LinkFaults{CorruptProb: 1}, Corrupt, func(in *Injector) int64 { return in.Corrupted }},
		{LinkFaults{DelayProb: 1}, Delay, func(in *Injector) int64 { return in.Delayed }},
		{LinkFaults{ReorderProb: 1}, Reorder, func(in *Injector) int64 { return in.Reordered }},
	}
	for _, c := range cases {
		in := NewInjector(3, Plan{Link: c.link})
		for i := 0; i < 100; i++ {
			act, d := in.PathAction(0, 1)
			if act != c.want {
				t.Fatalf("p=1 %v draw gave %v", c.want, act)
			}
			if (c.want == Delay || c.want == Reorder) && (d <= 0 || d > 10*time.Microsecond) {
				t.Fatalf("%v extra latency %v outside (0, 10us]", c.want, d)
			}
		}
		if c.tally(in) != 100 || in.Injected() != 100 {
			t.Fatalf("%v tally = %d, Injected = %d", c.want, c.tally(in), in.Injected())
		}
	}
}

// TestDelayMaxBoundsLatency: the configured bound is honored.
func TestDelayMaxBoundsLatency(t *testing.T) {
	in := NewInjector(9, Plan{Link: LinkFaults{DelayProb: 1, DelayMax: 2 * time.Microsecond}})
	for i := 0; i < 200; i++ {
		if _, d := in.PathAction(0, 1); d <= 0 || d > 2*time.Microsecond {
			t.Fatalf("delay %v outside (0, 2us]", d)
		}
	}
}

// TestCorruptBytesAlwaysChanges: a corrupted image must differ from the
// original, or the fault would be invisible to the checksum.
func TestCorruptBytesAlwaysChanges(t *testing.T) {
	in := NewInjector(5, Plan{})
	orig := make([]byte, 64)
	for i := range orig {
		orig[i] = byte(i)
	}
	for i := 0; i < 500; i++ {
		img := append([]byte(nil), orig...)
		in.CorruptBytes(img)
		if bytes.Equal(img, orig) {
			t.Fatalf("iteration %d: corruption left the image intact", i)
		}
	}
	in.CorruptBytes(nil) // must not panic
}

// TestPlanString smoke-checks the report rendering.
func TestPlanString(t *testing.T) {
	p := Plan{
		Name:    "soak",
		Link:    LinkFaults{DropProb: 0.01},
		NIC:     []NICFault{{Node: 1, Kind: FreezeStorm}, {Node: 0, Kind: OutStall}},
		Crashes: []Crash{{Node: 2, At: time.Millisecond}},
	}
	s := p.String()
	for _, want := range []string{"soak", "drop=0.01", "n1 freeze-storm", "n0 out-stall", "crash(n2@1ms)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Plan.String() = %q, missing %q", s, want)
		}
	}
}

// TestPartitionWindows: a Sever-armed cut severs exactly the
// cross-partition paths, in both directions, from Sever until Heal, with no
// randomness consumed.
func TestPartitionWindows(t *testing.T) {
	in := NewInjector(7, Plan{})
	other := NewInjector(7, Plan{})
	if in.Cut(0, 2) {
		t.Fatal("cut before Sever")
	}
	in.Sever([]int{0, 1}, false)
	other.Sever([]int{0, 1}, false)
	cases := []struct {
		src, dst int
		cut      bool
	}{
		{0, 2, true},  // out of the set
		{2, 0, true},  // reverse direction cut too
		{0, 1, false}, // same side of the cut
		{2, 3, false}, // both outside the set
		{1, 1, false}, // a node never cuts itself off
	}
	for _, c := range cases {
		if got := in.Cut(c.src, c.dst); got != c.cut {
			t.Fatalf("Cut(%d,%d) = %v, want %v", c.src, c.dst, got, c.cut)
		}
	}
	// PathAction on a cut path returns Sever and counts it; uncut paths
	// pass. The zero link rates mean no randomness is ever consumed, so
	// two injectors stay in lockstep.
	for _, c := range cases {
		act, d := in.PathAction(c.src, c.dst)
		act2, _ := other.PathAction(c.src, c.dst)
		if act != act2 {
			t.Fatalf("PathAction diverged across same-seed injectors")
		}
		want := Pass
		if c.cut {
			want = Sever
		}
		if act != want || d != 0 {
			t.Fatalf("PathAction(%d,%d) = %v/%v, want %v", c.src, c.dst, act, d, want)
		}
	}
	if in.Severed != 2 || in.Injected() != 2 {
		t.Fatalf("Severed = %d, Injected = %d, want 2", in.Severed, in.Injected())
	}
	if !strings.Contains(in.Summary(), "severed=2") {
		t.Fatalf("Summary() = %q, missing severed tally", in.Summary())
	}
	in.Heal()
	if act, _ := in.PathAction(0, 2); act != Pass || in.Cut(2, 0) {
		t.Fatal("cut survived Heal")
	}
}

// TestPartitionOneWay: an asymmetric cut severs only traffic leaving the
// set; replies still flow in. CutEither sees it from both sides.
func TestPartitionOneWay(t *testing.T) {
	in := NewInjector(7, Plan{})
	in.Sever([]int{3}, true)
	if !in.Cut(3, 0) {
		t.Fatal("outbound path from the set not cut")
	}
	if in.Cut(0, 3) {
		t.Fatal("inbound path to the set cut under oneWay")
	}
	if !in.CutEither(0, 3) || !in.CutEither(3, 0) {
		t.Fatal("CutEither must see a one-way cut from both sides")
	}
	if in.CutEither(0, 1) {
		t.Fatal("CutEither reported a cut between two nodes outside the set")
	}
}

// TestRuntimeSeverHeal: Sever and Heal arm and disarm a partition
// immediately, and a second Sever replaces the first.
func TestRuntimeSeverHeal(t *testing.T) {
	in := NewInjector(7, Plan{})
	in.Sever([]int{0, 1}, false)
	if !in.Cut(0, 2) || !in.Cut(2, 0) {
		t.Fatal("Sever did not cut both directions")
	}
	if in.Cut(0, 1) {
		t.Fatal("Sever cut inside the set")
	}
	in.Sever([]int{3}, true)
	if in.Cut(0, 2) {
		t.Fatal("second Sever did not replace the first")
	}
	if !in.Cut(3, 0) || in.Cut(0, 3) {
		t.Fatal("one-way runtime sever wrong")
	}
	in.Heal()
	if in.Cut(3, 0) {
		t.Fatal("cut survived Heal")
	}
	var none *Injector
	if none.Cut(0, 1) || none.CutEither(0, 1) {
		t.Fatal("nil injector reported a cut")
	}
}

// TestAckLostPath: severed ack paths, in either direction of a two-way
// cut, always lose the ack without consuming randomness; unsevered paths
// fall back to the base drop model.
func TestAckLostPath(t *testing.T) {
	in := NewInjector(7, Plan{})
	in.Sever([]int{1}, false)
	for i := 0; i < 25; i++ {
		if !in.AckLost(1, 0) || !in.AckLost(0, 1) {
			t.Fatal("ack crossed a severed path")
		}
		if in.AckLost(2, 3) {
			t.Fatal("zero-plan ack lost off the cut")
		}
	}
	if in.Severed != 50 || in.AcksLost != 0 {
		t.Fatalf("Severed = %d, AcksLost = %d, want 50 and 0", in.Severed, in.AcksLost)
	}
}

// TestPathActionReplayStable: PathAction and AckLost stay in lockstep
// across same-seed injectors over a mixed stream of paths while a
// partition is armed, replaced, and healed mid-stream.
func TestPathActionReplayStable(t *testing.T) {
	plan := Plan{Link: LinkFaults{DropProb: 0.05, DelayProb: 0.1}}
	a, b := NewInjector(42, plan), NewInjector(42, plan)
	for i := 0; i < 5000; i++ {
		switch i {
		case 1000:
			a.Sever([]int{1}, false)
			b.Sever([]int{1}, false)
		case 2000:
			a.Sever([]int{2}, true)
			b.Sever([]int{2}, true)
		case 3000:
			a.Heal()
			b.Heal()
		}
		src, dst := i%4, (i+1+i/7)%4
		actA, dA := a.PathAction(src, dst)
		actB, dB := b.PathAction(src, dst)
		if actA != actB || dA != dB {
			t.Fatalf("draw %d diverged: (%v,%v) vs (%v,%v)", i, actA, dA, actB, dB)
		}
		if a.AckLost(dst, src) != b.AckLost(dst, src) {
			t.Fatalf("ack draw %d diverged", i)
		}
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("tallies diverged: %q vs %q", a.Summary(), b.Summary())
	}
	if a.Severed == 0 || a.Dropped == 0 {
		t.Fatalf("stream exercised no partitions or drops: %s", a.Summary())
	}
}

// TestSeverKeepsUncutStream: with nonzero link rates, arming a Sever
// leaves the fate of every uncut packet and ack identical to a same-seed
// injector with nothing armed — cut traffic consumes no randomness, so the
// rand stream of the rest of the run does not shift.
func TestSeverKeepsUncutStream(t *testing.T) {
	plan := Plan{Link: LinkFaults{
		DropProb: 0.05, CorruptProb: 0.05, DelayProb: 0.1, ReorderProb: 0.1,
	}}
	cut, free := NewInjector(9, plan), NewInjector(9, plan)
	cut.Sever([]int{0, 5}, false)
	uncut := 0
	for i := 0; i < 6000; i++ {
		src, dst := i%6, (i*5+1+i/11)%6
		if cut.Cut(src, dst) {
			if act, d := cut.PathAction(src, dst); act != Sever || d != 0 {
				t.Fatalf("packet %d on a cut path: %v/%v, want sever", i, act, d)
			}
			if !cut.AckLost(dst, src) {
				t.Fatalf("ack %d crossed the cut", i)
			}
			continue
		}
		uncut++
		actC, dC := cut.PathAction(src, dst)
		actF, dF := free.PathAction(src, dst)
		if actC != actF || dC != dF {
			t.Fatalf("uncut packet %d diverged: (%v,%v) with a cut armed vs (%v,%v) without", i, actC, dC, actF, dF)
		}
		if cut.AckLost(dst, src) != free.AckLost(dst, src) {
			t.Fatalf("uncut ack %d diverged", i)
		}
	}
	if uncut == 0 || cut.Severed == 0 || free.Injected() == 0 {
		t.Fatalf("stream exercised nothing: %d uncut, with cut %s, without %s", uncut, cut.Summary(), free.Summary())
	}
	if cut.Injected()-cut.Severed != free.Injected() {
		t.Fatalf("uncut tallies differ: with cut %s, without %s", cut.Summary(), free.Summary())
	}
}

// TestValidate: every malformed-plan class is rejected with a diagnostic,
// and representative good plans pass.
func TestValidate(t *testing.T) {
	good := []Plan{
		{},
		{Link: LinkFaults{DropProb: 0.5, DelayProb: 0.5}},
		{NIC: []NICFault{{Node: 3, Kind: FreezeStorm, Count: 2}}},
		{Crashes: []Crash{{Node: 0, At: time.Millisecond}}},
	}
	for i, p := range good {
		if err := p.Validate(4); err != nil {
			t.Fatalf("good plan %d rejected: %v", i, err)
		}
	}
	bad := []struct {
		plan Plan
		want string
	}{
		{Plan{Link: LinkFaults{DropProb: -0.1}}, "outside [0,1]"},
		{Plan{Link: LinkFaults{CorruptProb: 2}}, "outside [0,1]"},
		{Plan{Link: LinkFaults{DropProb: 0.6, DelayProb: 0.6}}, "sum"},
		{Plan{Link: LinkFaults{DelayMax: -time.Second}}, "DelayMax"},
		{Plan{NIC: []NICFault{{Node: 4}}}, "nic[0]"},
		{Plan{NIC: []NICFault{{Node: 0, At: -time.Second}}}, "negative"},
		{Plan{Crashes: []Crash{{Node: -1}}}, "crash[0]"},
		{Plan{Crashes: []Crash{{Node: 0, At: -1}}}, "negative"},
	}
	for i, c := range bad {
		err := c.plan.Validate(4)
		if err == nil {
			t.Fatalf("bad plan %d accepted", i)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("bad plan %d: error %q missing %q", i, err, c.want)
		}
	}
}
