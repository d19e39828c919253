package nx

import (
	"fmt"
	"math/bits"

	"shrimp/internal/hw"
	"shrimp/internal/kernel"
)

// candidate is a matchable message: one landed in packet buffer buf of cn,
// or, with cn nil, entry buf of the loopback queue. node is its sender.
type candidate struct {
	cn   *conn
	buf  int
	h    hdr
	node int
}

// Crecv blocks until a message matching typesel arrives, copies it into buf
// (truncating at count bytes), and returns the number of bytes of the
// message delivered. Message info is available via Infocount/Infotype/
// Infonode afterwards.
func (nx *NX) Crecv(typesel int, buf kernel.VA, count int) int {
	p := nx.proc()
	span := nx.tc.Begin(nx.track, "crecv")
	defer span.End()
	p.Compute(hw.CallCost)
	for {
		nx.servicePending()
		if m, ok := nx.find(typesel, true); ok {
			return nx.consume(m, buf, count)
		}
		nx.flushAllCredits()
		p.WaitPred(nil, nx.arrived[:], 0, func() bool {
			_, ok := nx.find(typesel, false)
			return ok || nx.pendingActionable()
		})
	}
}

// Cprobe blocks until a message matching typesel is available (without
// consuming it) and records its info.
func (nx *NX) Cprobe(typesel int) {
	p := nx.proc()
	p.Compute(hw.CallCost)
	for !nx.probe(typesel) {
		nx.flushAllCredits()
		p.WaitPred(nil, nx.arrived[:], 0, func() bool {
			_, ok := nx.find(typesel, false)
			return ok || nx.pendingActionable()
		})
	}
}

// Iprobe reports whether a matching message is available, recording its
// info if so.
func (nx *NX) Iprobe(typesel int) bool {
	nx.proc().Compute(hw.CallCost)
	return nx.probe(typesel)
}

// probe is the step Cprobe and Iprobe share: service pending work, then
// record the info of a matching message, if one is available, without
// taking it.
func (nx *NX) probe(typesel int) bool {
	nx.servicePending()
	m, ok := nx.find(typesel, true)
	if ok {
		nx.setInfo(m.h.fullSize, m.h.typ, m.node, m.h.pid)
	}
	return ok
}

// setInfo records the last received message's info (Infocount and
// friends).
func (nx *NX) setInfo(count, typ, node, pid int) {
	nx.lastCount, nx.lastType, nx.lastNode, nx.lastPid = count, typ, node, pid
}

// postedRecv is an asynchronous receive created by Irecv.
type postedRecv struct {
	typesel int
	buf     kernel.VA
	count   int
	done    bool
	got     int
}

// Irecv posts an asynchronous receive. Matching happens during subsequent
// library calls (Msgwait/Msgdone or any blocking call).
func (nx *NX) Irecv(typesel int, buf kernel.VA, count int) ID {
	nx.proc().Compute(hw.CallCost)
	nx.nextID++
	id := nx.nextID
	nx.recvs[id] = &postedRecv{typesel: typesel, buf: buf, count: count}
	return id
}

// Msgdone polls an asynchronous operation for completion.
func (nx *NX) Msgdone(id ID) bool {
	p := nx.proc()
	p.Compute(hw.CallCost)
	nx.servicePending()
	if zs, ok := nx.sends[id]; ok {
		// A large send's transfer is advanced by servicePending above.
		if zs.complete {
			delete(nx.sends, id)
		}
		return zs.complete
	}
	if r, ok := nx.recvs[id]; ok {
		nx.serviceRecv(r)
		if r.done {
			delete(nx.recvs, id)
			return true
		}
		return false
	}
	return true // unknown or already-completed handle
}

// Msgwait blocks until an asynchronous operation completes.
func (nx *NX) Msgwait(id ID) {
	p := nx.proc()
	p.Compute(hw.CallCost)
	for !nx.Msgdone(id) {
		nx.flushAllCredits()
		p.WaitPred(nil, nx.arrived[:], 0, func() bool { return nx.ready(id) || nx.pendingActionable() })
	}
}

// ready reports, uncharged, whether Msgdone(id) could now complete: a
// receive's message has landed, or the operation is already done. A large
// send's reply is a pendingActionable case.
func (nx *NX) ready(id ID) bool {
	if zs, ok := nx.sends[id]; ok {
		return zs.complete
	}
	if r, ok := nx.recvs[id]; ok {
		_, found := nx.find(r.typesel, false)
		return r.done || found
	}
	return true
}

// serviceRecv attempts to satisfy a posted receive.
func (nx *NX) serviceRecv(r *postedRecv) {
	if r.done {
		return
	}
	if m, ok := nx.find(r.typesel, true); ok {
		r.got = nx.consume(m, r.buf, r.count)
		r.done = true
	}
}

// --- Matching ---

// find picks the message a receive for typesel takes next. Among first
// chunks landed in the packet buffers (continuation and zero-copy data
// chunks are never matched directly) it takes the lowest sequence number,
// ties going to the lower peer; only when none matches does it fall back
// to the oldest self-addressed message of the type. touch charges the scan
// (see slot); the wake predicates call it uncharged. It visits only the
// buffers next returns, which are exactly those a scan of all NumPkt
// would find holding a nonzero size word.
func (nx *NX) find(typesel int, touch bool) (candidate, bool) {
	var best candidate
	found := false
	for _, cn := range nx.connList {
		for buf := nx.next(cn, -1); buf >= 0; buf = nx.next(cn, buf) {
			h, ok := nx.slot(cn, buf, touch)
			if !ok || h.flags&(flagCont|flagZCData) != 0 || (typesel != TypeAny && h.typ != typesel) {
				continue
			}
			if !found || h.seq < best.h.seq || (h.seq == best.h.seq && cn.peer < best.node) {
				best = candidate{cn: cn, buf: buf, h: h, node: cn.peer}
				found = true
			}
		}
	}
	if found {
		return best, true
	}
	for i, sm := range nx.loopback {
		if typesel == TypeAny || sm.typ == typesel {
			return candidate{buf: i, h: hdr{typ: sm.typ, fullSize: len(sm.data), pid: sm.pid}, node: nx.node}, true
		}
	}
	return candidate{}, false
}

// next returns the lowest packet buffer of cn above after whose size word
// is nonzero, or -1. It reads cn.maybe afresh on every call, because a
// charged slot sleeps and more messages may land meanwhile, and it clears
// the bit of each buffer it finds free on the way. A free buffer costs the
// scans nothing in virtual time: polling a size word that is still zero is
// not charged.
func (nx *NX) next(cn *conn, after int) int {
	p := nx.proc()
	for m := cn.maybe &^ (1<<uint(after+1) - 1); m != 0; {
		buf := bits.TrailingZeros32(m)
		if cn.inWord(p, pktOff(buf)) != 0 {
			return buf
		}
		cn.maybe &^= 1 << buf
		m &^= 1 << buf
	}
	return -1
}

// slot reads packet buffer buf of cn's incoming region. It returns the
// buffer's descriptor only once a message has wholly landed there: the size
// word is set, the descriptor decodes as valid, and the trailing done word
// matches. The caller has seen a nonzero size word (see next). With touch,
// one word-touch is charged for the descriptor read (it is cached after the
// size-word poll).
func (nx *NX) slot(cn *conn, buf int, touch bool) (hdr, bool) {
	p := nx.proc()
	off := pktOff(buf)
	if touch {
		p.P.Sleep(hw.WordTouchCost)
	}
	var b [hdrSize]byte
	p.PeekInto(cn.in+kernel.VA(off), b[:])
	h, ok := decodeHdr(b)
	if !ok || cn.inWord(p, doneOff(off, h.size)) != uint32(h.size+1) {
		return hdr{}, false
	}
	return h, true
}

// consume delivers a matched message into the user buffer and releases its
// packet buffer(s).
func (nx *NX) consume(m candidate, buf kernel.VA, count int) int {
	p := nx.proc()
	if m.cn == nil {
		data := nx.loopback[m.buf].data
		nx.loopback = append(nx.loopback[:m.buf], nx.loopback[m.buf+1:]...)
		n := min(len(data), count)
		p.WriteBytes(buf, data[:n])
		nx.setInfo(n, m.h.typ, m.node, m.h.pid)
		return n
	}
	if m.h.flags&flagScout != 0 {
		return nx.zcRecv(m, buf, count)
	}
	// Matching bookkeeping, info updates, descriptor validation.
	p.Compute(3 * hw.CallCost)
	total := m.h.fullSize
	want := total
	if want > count {
		want = count
	}
	// First chunk.
	got := nx.copyOut(m.cn, m.buf, m.h.size, buf, want)
	nx.release(m.cn, m.buf, m.h.size)

	// Continuations for multi-buffer messages arrive in order; collect
	// chunk k for k = 1.. until the full message is in.
	received := m.h.size
	for idx := 1; received < total; idx++ {
		cm := nx.waitChunk(m.cn, flagCont, m.h.msgID, idx)
		got += nx.copyOut(m.cn, cm.buf, cm.h.size, buf+kernel.VA(got), want-got)
		nx.release(m.cn, cm.buf, cm.h.size)
		received += cm.h.size
	}
	nx.setInfo(got, m.h.typ, m.node, m.h.pid)
	return got
}

// copyOut copies up to want bytes of a packet buffer's payload to user
// memory — the receive-side copy of the one-copy protocols.
func (nx *NX) copyOut(cn *conn, buf, size int, dst kernel.VA, want int) int {
	n := size
	if n > want {
		n = want
	}
	if n <= 0 {
		return 0
	}
	nx.proc().CopyVA(dst, cn.in+kernel.VA(pktOff(buf)+hdrSize), n)
	return n
}

// release frees a consumed packet buffer: clear its size and done words
// locally and queue a lazy credit (flushed on block or doorbell).
func (nx *NX) release(cn *conn, buf, size int) {
	p := nx.proc()
	off := pktOff(buf)
	p.WriteWord(cn.in+kernel.VA(off), 0)
	p.WriteWord(cn.in+kernel.VA(doneOff(off, size)), 0)
	// The size word is zero, and stays so until the peer gets the credit.
	cn.maybe &^= 1 << buf
	cn.pendingCred = append(cn.pendingCred, buf)
	if len(cn.pendingCred) >= NumPkt/4 {
		nx.flushCredits(cn)
	}
}

// waitChunk blocks until the packet buffer holding chunk idx of message
// msgID (with the given flag) arrives on cn.
func (nx *NX) waitChunk(cn *conn, flag uint32, msgID uint32, idx int) candidate {
	p := nx.proc()
	for {
		if m, ok := nx.findChunk(cn, flag, msgID, idx, true); ok {
			return m
		}
		nx.flushAllCredits()
		p.WaitPred(nil, cn.arrived[:], 0, func() bool {
			_, ok := nx.findChunk(cn, flag, msgID, idx, false)
			return ok
		})
	}
}

// findChunk scans cn's packet buffers for chunk idx of message msgID with
// the given flag. touch charges the scan (see slot); the wake predicate
// calls it uncharged.
func (nx *NX) findChunk(cn *conn, flag uint32, msgID uint32, idx int, touch bool) (candidate, bool) {
	for buf := nx.next(cn, -1); buf >= 0; buf = nx.next(cn, buf) {
		h, ok := nx.slot(cn, buf, touch)
		if ok && h.flags&flag != 0 && h.msgID == msgID && h.fullSize == idx {
			return candidate{cn: cn, buf: buf, h: h, node: cn.peer}, true
		}
	}
	return candidate{}, false
}

func (nx *NX) flushAllCredits() {
	for _, cn := range nx.connList {
		if len(cn.pendingCred) > 0 {
			nx.flushCredits(cn)
		}
	}
}

func (nx *NX) String() string {
	return fmt.Sprintf("nx(node %d/%d)", nx.node, nx.n)
}
