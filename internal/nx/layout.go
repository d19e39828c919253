package nx

import (
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
)

// Wire layout of an NX connection region.
//
// For each ordered pair of processes (A -> B) there is one region, exported
// by B (the reader) and imported by A (the writer) at initialization time —
// "a connection is set up between each pair of processes at initialization
// time" (paper Section 4). Everything in the region is written by A, either
// by deliberate update through the import or by automatic update through a
// bound shadow copy; B reads it as plain local memory.
//
// Contents:
//
//   - NumPkt fixed-size packet buffers carrying A->B messages. The paper:
//     "NX divides the buffer into fixed-size pieces that can be reused in
//     any order" (receivers may consume out of order by message type).
//     Each starts with a descriptor whose size word is written last: the
//     sender transmits payload first, then the descriptor, so in-order
//     delivery makes a nonzero size word imply the payload is in place.
//   - A credit ring for the *B->A* direction: A, as the consumer of B's
//     messages, returns freed packet-buffer indices here, where B reads
//     them locally. "Since the receiver may consume messages out of order,
//     the credit identifies a specific packet buffer."
//   - A zero-copy reply ring for the *B->A* direction: when B sends a large
//     message, A (its receiver) replies here with the buffer ID of the
//     region of address space into which B is to place the data.
//   - A zero-copy done ring for the *A->B* direction: A's flag that a
//     direct data transfer has landed in B's user buffer.
//   - A doorbell word: a notifying transfer A makes when it finds all
//     buffers full, interrupting B to request credits (paper Section 6,
//     "Interrupts").
const (
	// NumPkt is the number of packet buffers per direction of a
	// connection.
	NumPkt = 16

	// PayloadMax is the largest payload carried in one packet buffer;
	// it is also the default threshold above which sends switch to the
	// zero-copy protocol (the "bump" in Figure 4).
	PayloadMax = 2048

	// hdrSize is the packet-buffer descriptor:
	//   +0  size word: payload bytes + 1; 0 = buffer free (written last)
	//   +4  message type
	//   +8  per-connection sequence number
	//   +12 flags
	//   +16 msgID (zero-copy sequence / multi-packet message ID)
	//   +20 fullSize (total user message size, or chunk index for
	//       continuation packets)
	//   +24 sender pid
	//   +28 reserved
	hdrSize = 32

	// PktSize is one packet buffer: descriptor + payload + trailing done
	// word (which sits at hdrSize+ceil4(payload), so a full payload needs
	// room past PayloadMax).
	PktSize = hdrSize + PayloadMax + 8

	// MaxZC is the number of outstanding zero-copy transfers per
	// direction of a connection.
	MaxZC = 8
)

// A conn's maybe mask holds one bit per packet buffer: this fails to
// compile if NumPkt outgrows its uint32.
const _ = uint32(1) << (NumPkt - 1)

// Descriptor flag bits.
const (
	flagScout  = 1 << iota // zero-copy announcement; fullSize = total bytes
	flagCont               // continuation chunk of a multi-packet message
	flagZCData             // chunked fallback data for a zero-copy transfer
)

// Region offsets.
const (
	pktBase      = 0
	creditBase   = pktBase + NumPkt*PktSize // NumPkt credit words
	zcReplyBase  = creditBase + NumPkt*4    // MaxZC reply slots, 24 B each
	zcDoneBase   = zcReplyBase + MaxZC*24   // MaxZC done words
	doorbellBase = zcDoneBase + MaxZC*4     // 1 word
	regionBytes  = doorbellBase + 4
	regionPages  = (regionBytes + hw.Page - 1) / hw.Page
)

// pktOff returns the region offset of packet buffer i.
func pktOff(i int) int { return pktBase + i*PktSize }

// creditOff returns the region offset of credit ring slot k.
// Slot value: (creditNumber+1)<<8 | bufIdx, so a reader can detect when the
// slot it expects has been stamped.
func creditOff(k int) int { return creditBase + (k%NumPkt)*4 }

// zcReplySlot returns the region offset of the zero-copy reply slot for
// sequence number seq.
// Layout: [stamp=seq+1 | exportID | byteOff | mode | maxBytes | rsvd].
func zcReplySlot(seq uint32) int { return zcReplyBase + int(seq%MaxZC)*24 }

// Reply modes.
const (
	zcModeDirect  = 0 // sender DUs (or AU-copies) straight into user memory
	zcModeChunked = 1 // alignment forbids zero-copy; stream through buffers
)

// zcDoneSlot returns the region offset of the done word for seq.
// Value: seq+1.
func zcDoneSlot(seq uint32) int { return zcDoneBase + int(seq%MaxZC)*4 }

// regionName is the daemon export name of the region written by `writer`
// and read (and exported) by `reader`.
func regionName(writer, reader int) string {
	return "nx:" + itoa(writer) + ">" + itoa(reader)
}

// zcExportName names a receiver's dynamically-exported user buffer region.
func zcExportName(node int, id uint32) string {
	return "nxzc:" + itoa(node) + ":" + itoa(int(id))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// ceil4 rounds n up to a word multiple.
func ceil4(n int) int { return (n + 3) &^ 3 }

// pageFloor rounds a VA down to its page base.
func pageFloor(va kernel.VA) kernel.VA { return va &^ (hw.Page - 1) }
