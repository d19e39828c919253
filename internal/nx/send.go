package nx

import (
	"fmt"

	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/vmmc"
)

// mustSend issues a deliberate update the NX protocol cannot recover from if
// it fails. The paper's NX interface (csend/crecv/isend) has no error
// channel: an import revoked mid-send means the peer tore down its buffers
// underneath an established connection, which is fatal to the process on
// the real machine too.
func (nx *NX) mustSend(imp *vmmc.Import, dstOff int, src kernel.VA, n int) {
	if err := nx.ep.Send(imp, dstOff, src, n); err != nil {
		//lint:allow transitive-panic NX csend has no error channel; a mapping revoked mid-send is fatal by design
		panic(fmt.Sprintf("nx: send: %v", err))
	}
}

// hdr is a packet-buffer descriptor in decoded form.
type hdr struct {
	size     int // payload bytes (wire: size+1, 0 = free)
	typ      int
	seq      uint32
	flags    uint32
	msgID    uint32
	fullSize int
	pid      int
}

// encode renders the descriptor by value, so callers store it from the
// stack.
func (h *hdr) encode() [hdrSize]byte {
	var b [hdrSize]byte
	putU32 := func(off int, v uint32) {
		b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	putU32(0, uint32(h.size+1))
	putU32(4, uint32(h.typ))
	putU32(8, h.seq)
	putU32(12, h.flags)
	putU32(16, h.msgID)
	putU32(20, uint32(h.fullSize))
	putU32(24, uint32(h.pid))
	return b
}

// decodeHdr decodes a descriptor as encode renders it. The peer writes the
// bytes and the receiver does not trust it: ok is false unless the size
// word names a payload of 0..PayloadMax bytes, so the payload and done word
// it locates stay inside the packet buffer.
func decodeHdr(b [hdrSize]byte) (hdr, bool) {
	u32 := func(o int) uint32 {
		return uint32(b[o]) | uint32(b[o+1])<<8 | uint32(b[o+2])<<16 | uint32(b[o+3])<<24
	}
	if w := u32(0); w == 0 || w > PayloadMax+1 {
		return hdr{}, false
	}
	return hdr{
		size:     int(u32(0)) - 1,
		typ:      int(int32(u32(4))),
		seq:      u32(8),
		flags:    u32(12),
		msgID:    u32(16),
		fullSize: int(u32(20)),
		pid:      int(u32(24)),
	}, true
}

// doneOff returns the offset of the done word for a payload of n bytes.
func doneOff(pkt, n int) int { return pkt + hdrSize + ceil4(n) }

// Csend sends a message of the given type: the blocking NX send. It returns
// when the user buffer may be reused.
func (nx *NX) Csend(typ int, buf kernel.VA, count, node, pid int) {
	p := nx.proc()
	span := nx.tc.Begin(nx.track, "csend")
	defer span.End()
	nx.tc.Count(nx.track, "csend.bytes", int64(count))
	p.Compute(hw.CallCost)
	if typ < 0 {
		//lint:allow transitive-panic API-misuse invariant: reserved types are a caller bug, as in real NX
		panic(fmt.Sprintf("nx: csend with reserved type %d", typ))
	}
	if node == nx.node {
		nx.sendSelf(typ, buf, count, pid)
		return
	}
	cn := nx.conn(node)
	switch proto := nx.proto(count); proto {
	case ProtoAU2, ProtoDU1, ProtoDU2:
		nx.sendBuffered(cn, typ, buf, count, pid, proto)
	case ProtoAU1, ProtoDU0:
		nx.zcSendBlocking(cn, typ, buf, count, pid, proto)
	}
}

// Isend starts an asynchronous send and returns a handle for Msgwait.
func (nx *NX) Isend(typ int, buf kernel.VA, count, node, pid int) ID {
	p := nx.proc()
	p.Compute(hw.CallCost)
	nx.nextID++
	id := nx.nextID
	if node == nx.node {
		nx.sendSelf(typ, buf, count, pid)
		nx.sends[id] = &zcSend{complete: true}
		return id
	}
	cn := nx.conn(node)
	switch proto := nx.proto(count); proto {
	case ProtoAU2, ProtoDU1, ProtoDU2:
		// Small sends complete inline: the data is out of the user
		// buffer once written to the connection.
		nx.sendBuffered(cn, typ, buf, count, pid, proto)
		nx.sends[id] = &zcSend{complete: true}
	default:
		// Large asynchronous sends skip the backup copy entirely: the
		// user buffer stays live until Msgwait, so the transfer always
		// goes directly from user memory. It parks with the blocking
		// sends' transfers, so every library call advances it.
		zs := nx.zcStart(&zcSend{}, cn, typ, buf, count, pid, proto, false)
		nx.sends[id] = zs
		nx.pendingZC = append(nx.pendingZC, zs)
	}
	return id
}

// proto picks the protocol for a count-byte send: the pinned variant if
// Config.Force sets one, otherwise adaptively — one-copy AU through a
// packet buffer up to PayloadMax, zero-copy DU beyond it.
func (nx *NX) proto(count int) Proto {
	switch {
	case nx.cfg.Force != ProtoDefault:
		return nx.cfg.Force
	case count > PayloadMax:
		return ProtoDU0
	}
	return ProtoAU2
}

// sendBuffered transmits through packet buffers, chunking messages larger
// than one buffer.
func (nx *NX) sendBuffered(cn *conn, typ int, buf kernel.VA, count, pid int, proto Proto) {
	if count <= PayloadMax {
		nx.sendChunk(cn, hdr{typ: typ, fullSize: count, pid: pid}, buf, count, proto)
		return
	}
	nx.nextID++
	msgID := uint32(nx.nextID)
	off, idx := 0, 0
	for off < count {
		n := count - off
		if n > PayloadMax {
			n = PayloadMax
		}
		h := hdr{typ: typ, msgID: msgID, fullSize: count, pid: pid}
		if idx > 0 {
			h.flags = flagCont
			h.fullSize = idx
		}
		nx.sendChunk(cn, h, buf+kernel.VA(off), n, proto)
		off += n
		idx++
	}
}

// sendChunk writes one packet-buffer message: payload area first (or via a
// deliberate update), descriptor and trailing done word so that, with
// in-order delivery, done != 0 implies the whole message is in place.
func (nx *NX) sendChunk(cn *conn, h hdr, src kernel.VA, n int, proto Proto) {
	p := nx.proc()
	nx.Stats.DataSends++
	nx.tc.Count(nx.track, "data.send", 1)
	// Descriptor setup, buffer selection, protocol dispatch.
	p.Compute(3 * hw.CallCost)
	buf := nx.acquireBuf(cn)
	off := pktOff(buf)
	h.size = n
	cn.sendSeq++
	h.seq = cn.sendSeq

	// A misaligned user buffer cannot feed a deliberate update: ProtoDU1
	// falls back to the two-copy path for it, as the paper requires.
	if proto == ProtoDU1 && src%hw.WordSize != 0 {
		proto = ProtoDU2
	}
	switch proto {
	case ProtoAU2, ProtoAU1, ProtoDU0:
		// One-copy automatic-update path (also carries scouts and
		// chunked fallbacks for the zero-copy protocols): header,
		// payload and done word are stored consecutively into the
		// AU-bound shadow, so the hardware combines them into a
		// minimal packet train.
		enc := h.encode()
		cn.shadowWrite(p, off, enc[:])
		if n > 0 {
			p.CopyVA(cn.outShadow+kernel.VA(off+hdrSize), src, n)
		}
		cn.shadowWriteWord(p, doneOff(off, n), uint32(n+1))

	case ProtoDU2:
		// Two-copy deliberate-update path: marshal header + payload +
		// done into the staging area, one deliberate update moves all
		// of it. The done word rides in the final packet, so its
		// arrival implies the payload's.
		enc := h.encode()
		p.WriteBytes(cn.staging, enc[:])
		if n > 0 {
			p.CopyVA(cn.staging+hdrSize, src, n)
		}
		p.WriteWord(cn.staging+kernel.VA(hdrSize+ceil4(n)), uint32(n+1))
		nx.mustSend(cn.out, off, cn.staging, hdrSize+ceil4(n)+4)

	case ProtoDU1:
		// One-copy deliberate-update path: the payload goes directly
		// from user memory with its own deliberate update (saving the
		// local copy at the cost of an extra send); header by another
		// update and the done word by automatic update afterwards.
		enc := h.encode()
		p.WriteBytes(cn.staging, enc[:])
		nx.mustSend(cn.out, off, cn.staging, hdrSize)
		if n > 0 {
			nx.mustSend(cn.out, off+hdrSize, src, ceil4(n))
		}
		cn.shadowWriteWord(p, doneOff(off, n), uint32(n+1))
	default:
		//lint:allow transitive-panic unreachable: every Proto constant is handled above
		panic("nx: bad chunk protocol")
	}
}

// sendSelf loops a message back to this process through a local queue, with
// one memcpy charged per side.
func (nx *NX) sendSelf(typ int, buf kernel.VA, count, pid int) {
	p := nx.proc()
	data := p.ReadBytes(buf, count)
	nx.loopback = append(nx.loopback, &selfMsg{typ: typ, data: data, pid: pid})
}
