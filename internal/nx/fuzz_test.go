package nx

import "testing"

// FuzzDecodeHdr throws arbitrary descriptor bytes at decodeHdr, as a peer's
// writes reach a receiver's packet buffers. No input may panic. A
// descriptor it accepts puts its done word inside the packet buffers, and
// re-encodes to bytes that decode to the same header.
func FuzzDecodeHdr(f *testing.F) {
	for _, h := range []hdr{
		{size: 0, typ: 7, seq: 1},
		{size: PayloadMax, typ: -3, seq: 9, flags: flagCont, msgID: 4, fullSize: 2, pid: 1},
		{typ: 1, flags: flagScout, msgID: 5, fullSize: 40000},
	} {
		b := h.encode()
		f.Add(b[:])
	}
	f.Add(make([]byte, hdrSize))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var b [hdrSize]byte
		copy(b[:], raw)
		h, ok := decodeHdr(b)
		if !ok {
			return
		}
		if end := doneOff(pktOff(NumPkt-1), h.size) + 4; h.size < 0 || end > creditBase {
			t.Fatalf("accepted size %d ends the last buffer's done word at %d, past the packet buffers (%d)", h.size, end, creditBase)
		}
		if back, ok := decodeHdr(h.encode()); !ok || back != h {
			t.Fatalf("round trip: %+v became %+v (ok=%v)", h, back, ok)
		}
	})
}
