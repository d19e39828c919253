package snap

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
)

// runWorkload drives a captured-or-fresh world through a fixed mix of
// process spawns, computes, memory traffic, and timers — enough engine
// activity that any clock, roster, or allocator divergence between a live
// world and its clone shows up in the replay digest.
func runWorkload(c *cluster.Cluster) {
	for i, n := range c.Nodes {
		i, n := i, n
		n.M.Spawn(fmt.Sprintf("wrk%d", i), func(p *kernel.Process) {
			va := p.MapPages(2, 0)
			for k := 0; k < 6; k++ {
				p.WriteWord(va+kernel.VA(4*k), uint32(i*100+k))
				p.Compute(time.Duration(i+1) * time.Microsecond)
			}
		})
		c.Eng.At(c.Eng.Now().Add(time.Duration(i+3)*time.Microsecond), func() {})
	}
	c.Run()
}

// digestOf attaches a per-engine digest, runs the workload, and folds in
// the final clock so stalled clones cannot accidentally match.
func digestOf(c *cluster.Cluster) uint64 {
	dt := sim.NewDigestTracer()
	c.Eng.AddTracer(dt)
	runWorkload(c)
	return dt.Sum() ^ uint64(c.Eng.Now())
}

// TestSnapshotDeterminismSmoke is the make-check smoke: boot, snapshot,
// restore two clones, run the worlds through the same scenario, compare
// digests. The live world pre-writes the frames the workload maps next, so
// the first clone's stores copy out of frames it shares with the second;
// the second, run after it, must still replay the live world's digest.
func TestSnapshotDeterminismSmoke(t *testing.T) {
	live := cluster.New(cluster.Config{})
	defer live.Shutdown()
	page := bytes.Repeat([]byte{0x5A}, hw.Page)
	for _, n := range live.Nodes {
		next := mem.PFN(n.M.Mem.Pages() - n.M.FreeFrames())
		n.M.Mem.WriteDMA(next.Base(), page)
		n.M.Mem.WriteDMA((next + 1).Base(), page)
	}
	w, err := Capture(live)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	var clones [2]*cluster.Cluster
	for i := range clones {
		c, err := w.Restore()
		if err != nil {
			t.Fatalf("Restore %d: %v", i, err)
		}
		defer c.Shutdown()
		clones[i] = c
	}

	first := digestOf(clones[0])
	shared := clones[1].Nodes[0].M.Mem.SharedFrames()
	if got := clones[0].Nodes[0].M.Mem.SharedFrames(); got >= shared {
		t.Fatalf("workload wrote no sealed frame: %d shared after the run, %d before", got, shared)
	}
	second := digestOf(clones[1])
	want := digestOf(live)
	if first != want {
		t.Fatalf("restored world diverged: clone digest %s, live %s",
			sim.DigestString(first), sim.DigestString(want))
	}
	if second != want {
		t.Fatalf("second clone diverged after the first wrote shared frames: %s, live %s",
			sim.DigestString(second), sim.DigestString(want))
	}
}

// TestCaptureWithDataset: host-loaded DRAM survives capture, encode,
// decode, and restore, and clones are copy-on-write isolated from each
// other and from the image.
func TestCaptureWithDataset(t *testing.T) {
	live := cluster.New(cluster.Config{})
	defer live.Shutdown()
	payload := bytes.Repeat([]byte{0xC7}, hw.Page)
	live.Nodes[0].M.Mem.WriteDMA(mem.PFN(20).Base(), payload)
	live.Nodes[1].M.Mem.WriteDMA(mem.PFN(20).Base(), payload) // dedup fodder

	w, err := Capture(live)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if w.Chunks.DupHits == 0 {
		t.Fatalf("identical pages on two nodes did not dedup")
	}

	enc := w.Encode()
	w2, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	a, err := w2.Restore()
	if err != nil {
		t.Fatalf("Restore a: %v", err)
	}
	defer a.Shutdown()
	b, err := w2.Restore()
	if err != nil {
		t.Fatalf("Restore b: %v", err)
	}
	defer b.Shutdown()

	if got := a.Nodes[0].M.Mem.Read(mem.PFN(20).Base(), 4); got[0] != 0xC7 {
		t.Fatalf("clone lost the dataset: %#x", got[0])
	}
	a.Nodes[0].M.Mem.WriteCPU(mem.PFN(20).Base(), []byte{0x01})
	if got := b.Nodes[0].M.Mem.Read(mem.PFN(20).Base(), 1); got[0] != 0xC7 {
		t.Fatalf("write in clone a leaked into clone b: %#x", got[0])
	}
	if got, err := Decode(enc); err != nil || got.Chunks.Get(got.Nodes[0].Frames[len(got.Nodes[0].Frames)-1].Chunk)[0] != 0xC7 {
		t.Fatalf("image mutated by clone write (err %v)", err)
	}
}

// TestEncodeDeterministic: capture → encode twice, and encode of a
// re-captured clone, must all be byte-identical — the versioned-serializer
// half of the tentpole invariant.
func TestEncodeDeterministic(t *testing.T) {
	live := cluster.New(cluster.Config{})
	defer live.Shutdown()
	live.Nodes[2].M.Mem.WriteDMA(mem.PFN(9).Base(), bytes.Repeat([]byte{0x42}, 128))
	w, err := Capture(live)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	e1, e2 := w.Encode(), w.Encode()
	if !bytes.Equal(e1, e2) {
		t.Fatalf("Encode is not deterministic: %d vs %d bytes", len(e1), len(e2))
	}

	clone, err := w.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer clone.Shutdown()
	w2, err := Capture(clone)
	if err != nil {
		t.Fatalf("re-Capture: %v", err)
	}
	if !bytes.Equal(e1, w2.Encode()) {
		t.Fatalf("re-captured clone encodes differently from its image")
	}
}

// TestRestoreRefusals: the tripwires fire instead of building divergent
// worlds.
func TestRestoreRefusals(t *testing.T) {
	live := cluster.New(cluster.Config{})
	defer live.Shutdown()
	w, err := Capture(live)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}

	tampered := *w
	tampered.Procs = append([]sim.ProcSummary(nil), w.Procs...)
	tampered.Procs[0].Name = "ghost"
	if _, err := tampered.Restore(); err == nil {
		t.Fatalf("Restore accepted a process-roster drift")
	}

	tampered = *w
	tampered.HadFaultPlan = true
	if _, err := tampered.Restore(); err == nil {
		t.Fatalf("Restore of a fault-plan world without the plan succeeded")
	}

	enc := w.Encode()
	enc[len(enc)/2] ^= 0x40
	if _, err := Decode(enc); err == nil {
		t.Fatalf("Decode accepted a corrupted image")
	}
}

// TestDecodeEnvelope: version and trailer checks on hand-rolled images.
func TestDecodeEnvelope(t *testing.T) {
	if _, err := Decode([]byte("short")); err == nil {
		t.Fatalf("Decode accepted a truncated image")
	}
	wr := NewWriter()
	wr.Str("not a world")
	if _, err := Decode(wr.Finish()); err == nil {
		t.Fatalf("Decode accepted a structurally bogus body")
	}
}

// FuzzSnapDecode: on arbitrary or mutated bytes Decode returns an error
// and never panics. Each input is decoded as it is and again resealed with
// a valid integrity trailer, so mutations get past the trailer check and
// reach the section decoders. A world that does decode must re-encode to
// an image that decodes and re-encodes to the same bytes. The seeds are
// the TestEncodeDeterministic world's image and its body.
func FuzzSnapDecode(f *testing.F) {
	live := cluster.New(cluster.Config{})
	live.Nodes[2].M.Mem.WriteDMA(mem.PFN(9).Base(), bytes.Repeat([]byte{0x42}, 128))
	w, err := Capture(live)
	live.Shutdown()
	if err != nil {
		f.Fatalf("Capture: %v", err)
	}
	img := w.Encode()
	f.Add(img)
	f.Add(img[:len(img)-8])
	f.Fuzz(func(t *testing.T, b []byte) {
		sealed := &Writer{buf: append([]byte(nil), b...)}
		for _, img := range [][]byte{b, sealed.Finish()} {
			w, err := Decode(img)
			if err != nil {
				continue
			}
			enc := w.Encode()
			again, err := Decode(enc)
			if err != nil {
				t.Fatalf("a decoded world re-encodes to an image Decode refuses: %v", err)
			}
			if !bytes.Equal(again.Encode(), enc) {
				t.Fatal("re-encoding a decoded world is not stable")
			}
		}
	})
}

// TestCodecGolden pins the exact byte encoding of a fixed value sequence;
// any change here is a format break and must bump Version.
func TestCodecGolden(t *testing.T) {
	wr := NewWriter()
	wr.U64(300)
	wr.I64(-5)
	wr.Bool(true)
	wr.Str("hi")
	wr.Bytes([]byte{0xFE})
	got := fmt.Sprintf("%x", wr.Finish())
	want := "534852494d50534e415001ac020901026869" + "01fe" + "b9e20968604a8e35"
	if got != want {
		t.Fatalf("codec golden mismatch:\n got %s\nwant %s", got, want)
	}

	r, err := NewReader(wr.Finish())
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.U64() != 300 || r.I64() != -5 || !r.Bool() || r.Str() != "hi" || !bytes.Equal(r.Bytes(), []byte{0xFE}) {
		t.Fatalf("round-trip values wrong (err %v)", r.Err())
	}
	if !r.Done() {
		t.Fatalf("reader not at end: err %v", r.Err())
	}
}
