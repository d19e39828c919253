package bench

import (
	"testing"

	"shrimp/internal/socket"
)

func TestFig7Shape(t *testing.T) {
	// 1. Small-message latency ~13us above the 4.75us hardware limit.
	lat, _ := SocketPingPong(socket.ModeAU2, 4, 8)
	if delta := lat - 4.75; delta < 10 || delta > 16 {
		t.Errorf("socket small-message delta %.2f us over hardware, paper ~13", delta)
	}

	// 2. Large messages approach the one-copy hardware limit (raw
	// DU-1copy from Figure 3).
	_, raw1copy := VMMCPingPong(DU1copy, 10240, 6)
	_, du1 := SocketPingPong(socket.ModeDU1, 10240, 6)
	if du1 < 0.75*raw1copy || du1 > 1.05*raw1copy {
		t.Errorf("socket DU-1copy 10KB = %.1f MB/s, want close to raw 1-copy %.1f", du1, raw1copy)
	}

	// 3. DU-1copy beats DU-2copy at large sizes; AU-2copy and DU-2copy
	// are close (both two-copy).
	_, du2 := SocketPingPong(socket.ModeDU2, 10240, 6)
	_, au2 := SocketPingPong(socket.ModeAU2, 10240, 6)
	if du1 <= du2 {
		t.Errorf("DU-1copy (%.1f) should beat DU-2copy (%.1f) at 10KB", du1, du2)
	}
	if ratio := au2 / du2; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("AU-2copy (%.1f) and DU-2copy (%.1f) should be comparable", au2, du2)
	}
	t.Logf("fig7: lat4=%.2fus (hw+%.2f); 10KB: DU1=%.1f DU2=%.1f AU2=%.1f (raw 1copy %.1f)",
		lat, lat-4.75, du1, du2, au2, raw1copy)
}

func TestTTCPNumbers(t *testing.T) {
	r := RunTTCP()
	// Paper: ttcp 8.6 MB/s at 7KB; microbenchmark 9.8; ttcp 1.3 MB/s at
	// 70 B — notably above Ethernet's 1.25 MB/s peak.
	if r.TTCP7K < 7 || r.TTCP7K > 13 {
		t.Errorf("ttcp 7KB = %.2f MB/s, paper 8.6 (model overlaps app work with DMA; see EXPERIMENTS.md)", r.TTCP7K)
	}
	if r.Micro7K < 8.5 || r.Micro7K > 13 {
		t.Errorf("microbench 7KB = %.2f MB/s, paper 9.8", r.Micro7K)
	}
	if r.Micro7K <= r.TTCP7K {
		t.Errorf("microbenchmark (%.2f) should beat ttcp (%.2f): no app overhead", r.Micro7K, r.TTCP7K)
	}
	if r.TTCP70 < 1.0 || r.TTCP70 > 1.7 {
		t.Errorf("ttcp 70B = %.2f MB/s, paper 1.3", r.TTCP70)
	}
	if r.TTCP70 <= r.EthernetPeak {
		t.Errorf("ttcp 70B (%.2f) should beat Ethernet peak (%.2f) — the paper's point", r.TTCP70, r.EthernetPeak)
	}
	t.Logf("ttcp: 7KB=%.2f (paper 8.6), micro 7KB=%.2f (9.8), 70B=%.2f (1.3) vs ether %.2f",
		r.TTCP7K, r.Micro7K, r.TTCP70, r.EthernetPeak)
}

// TestSocketStreamLossy drives ttcp's -drop path: a lossy backplane makes
// the retransmit sublayer work, the raw one never retransmits, and a rerun
// at the same seed reproduces bandwidth and retransmits exactly. Recovery
// hides behind the stream's pipelining, so bandwidth is not asserted to
// fall.
func TestSocketStreamLossy(t *testing.T) {
	const size, count = 7168, 16
	stream := func(drop float64) (float64, int64) {
		return SocketStream(socket.ModeDU1, size, count, TTCPPerWrite, TTCPPerByte, nil, drop, 1)
	}
	if _, retrans := stream(0); retrans != 0 {
		t.Errorf("drop 0: %d retransmits, want 0 on the raw backplane", retrans)
	}
	mbps, retrans := stream(0.01)
	if retrans <= 0 {
		t.Errorf("drop 1%%: %d retransmits, want some", retrans)
	}
	if mbps <= 0 {
		t.Errorf("drop 1%%: bandwidth %.2f MB/s, want positive", mbps)
	}
	if mbps2, retrans2 := stream(0.01); mbps2 != mbps || retrans2 != retrans {
		t.Errorf("rerun at the same seed: %.6f MB/s, %d retransmits; first run %.6f MB/s, %d retransmits",
			mbps2, retrans2, mbps, retrans)
	}
}
