package hw

import (
	"testing"
	"time"
)

// TestLatencyBudget documents how the §3.4 one-word latencies decompose
// into the constants in this package. The end-to-end numbers themselves are
// verified by measurement in internal/bench (fig3_test.go); this test pins
// the budget arithmetic so a recalibration cannot silently drift one number
// while leaving the others.
func TestLatencyBudget(t *testing.T) {
	// Shared incoming path for a one-word packet.
	incoming := IPTCheckCost + IncomingDMASetup + 4*EISADMAPerByte

	// Mesh: 2 adjacent nodes = inject + 1 link + eject channels, hop
	// latency between them, one serialization of header+payload.
	mesh := 2*MeshHopLatency + time.Duration(PacketHeaderBytes+4)*MeshLinkPerByte

	shared := PacketizeCost + NICInjectCost + mesh + incoming

	// Automatic update, write-through: store retires, becomes visible to
	// the snoop one delay later, sits in the combining buffer until the
	// timer flushes it.
	auWT := 4*AUStorePerByte + AUSnoopDelay + CombineTimeout + shared
	if auWT < 4200*time.Nanosecond || auWT > 4800*time.Nanosecond {
		t.Errorf("AU write-through budget %v; ping-pong adds library-side costs to reach 4.75us", auWT)
	}

	// Uncached differs by exactly the snoop-delay difference, which must
	// equal the paper's 4.75-3.70 = 1.05 us.
	if d := AUSnoopDelay - AUUncachedSnoopDelay; d != 1050*time.Nanosecond {
		t.Errorf("cached-vs-uncached delta %v, paper 1.05us", d)
	}

	// Deliberate update: two programmed-I/O accesses, engine start, the
	// source DMA read, then the shared path.
	du := 2*DUInitAccess + DUEngineStart + 4*EISADMAPerByte + shared
	if du < 7000*time.Nanosecond || du > 7700*time.Nanosecond {
		t.Errorf("DU budget %v; ping-pong lands on 7.6us", du)
	}

	// DU start-up premium over AU (why AU wins small messages).
	if du <= auWT {
		t.Error("DU one-word cost must exceed AU (the paper's small-message ordering)")
	}
}

// TestRateSanity pins the bandwidth-side constants against the paper's bus
// specifications: effective rates (MB/s, 1e3 over the nanoseconds per
// byte) must stay below the hardware burst maxima, and the orderings that
// create Figure 3's asymptotes must hold.
func TestRateSanity(t *testing.T) {
	eisa := 1e3 / float64(EISADMAPerByte)
	copyR := 1e3 / float64(MemCopyPerByte)
	au := 1e3 / float64(AUStorePerByte)
	link := 1e3 / float64(MeshLinkPerByte)

	if eisa >= 33 {
		t.Errorf("effective EISA DMA %.1f MB/s exceeds the 33 MB/s burst maximum", eisa)
	}
	if copyR >= 73 {
		t.Errorf("memcpy %.1f MB/s exceeds the 73 MB/s Xpress burst maximum", copyR)
	}
	if !(au < copyR) {
		t.Error("AU store stream must be slower than a plain memcpy (snooped write-through)")
	}
	if !(au < eisa) {
		t.Error("AU must be copy-limited (below the DMA rate) for Figure 3's AU-below-DU asymptote")
	}
	if link < 100 {
		t.Errorf("mesh link %.0f MB/s should never be the bottleneck", link)
	}
	ether := 1e3 / float64(EtherPerByte)
	if ether > 1.26 || ether < 1.24 {
		t.Errorf("Ethernet rate %.3f MB/s, want 10 Mb/s = 1.25 MB/s", ether)
	}
}

// TestPageAndPacketGeometry pins structural constants the protocol layouts
// depend on.
func TestPageAndPacketGeometry(t *testing.T) {
	if Page != 4096 {
		t.Error("i386 pages are 4096 bytes")
	}
	if WordSize != 4 {
		t.Error("the DU alignment restriction is 4-byte words")
	}
	if MaxPacketPayload <= 0 || Page%MaxPacketPayload != 0 {
		t.Error("packet payload should divide the page for clean splitting")
	}
	if AUSegment > MaxPacketPayload {
		t.Error("AU segments must not exceed a packet payload (combining invariant)")
	}
}
