package nx

import (
	"math/rand"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
)

// fullFind is find as a scan of all NumPkt packet buffers of every
// connection, uncharged: the reference the indexed matcher must agree with.
func fullFind(nx *NX, typesel int) (candidate, bool) {
	p := nx.proc()
	var best candidate
	found := false
	for _, cn := range nx.connList {
		for buf := 0; buf < NumPkt; buf++ {
			if cn.inWord(p, pktOff(buf)) == 0 {
				continue
			}
			h, ok := nx.slot(cn, buf, false)
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

// fullFindChunk is findChunk as a scan of all NumPkt buffers of cn.
func fullFindChunk(nx *NX, cn *conn, flag uint32, msgID uint32, idx int) (candidate, bool) {
	for buf := 0; buf < NumPkt; buf++ {
		if cn.inWord(nx.proc(), pktOff(buf)) == 0 {
			continue
		}
		h, ok := nx.slot(cn, buf, false)
		if ok && h.flags&flag != 0 && h.msgID == msgID && h.fullSize == idx {
			return candidate{cn: cn, buf: buf, h: h, node: cn.peer}, true
		}
	}
	return candidate{}, false
}

// nonzero returns the mask of cn's packet buffers whose size word is set.
func nonzero(nx *NX, cn *conn) uint32 {
	var m uint32
	for buf := 0; buf < NumPkt; buf++ {
		if cn.inWord(nx.proc(), pktOff(buf)) != 0 {
			m |= 1 << buf
		}
	}
	return m
}

// indexChecker is an engine tracer: before every event and at every proc
// switch (so after every delivery, every release and every step of a scan
// that slept), it checks the receiver's indexed matchers against the full
// scans. It puts the masks back as it found them, so the run it checks is
// the run the library makes on its own.
type indexChecker struct {
	t      *testing.T
	nx     *NX // nil until the receiver's NX is built
	types  []int
	saved  []uint32
	checks int // checks that found a message pending
	failed bool
}

func (c *indexChecker) Event(sim.Time, uint64)         { c.check() }
func (c *indexChecker) ProcSwitch(sim.Time, *sim.Proc) { c.check() }

func (c *indexChecker) fail(format string, args ...any) {
	if !c.failed {
		c.failed = true
		c.t.Errorf(format, args...)
	}
}

func (c *indexChecker) check() {
	nx := c.nx
	if nx == nil || c.failed {
		return
	}
	c.saved = c.saved[:0]
	for _, cn := range nx.connList {
		if lost := nonzero(nx, cn) &^ cn.maybe; lost != 0 {
			c.fail("peer %d: size words %016b set with their maybe bits clear (mask %016b)", cn.peer, lost, cn.maybe)
			return
		}
		c.saved = append(c.saved, cn.maybe)
	}
	defer func() {
		for i, cn := range nx.connList {
			cn.maybe = c.saved[i]
		}
	}()
	for _, typ := range c.types {
		got, gok := nx.find(typ, false)
		want, wok := fullFind(nx, typ)
		if got != want || gok != wok {
			c.fail("find(%d) = %+v, %v; the full scan finds %+v, %v", typ, got, gok, want, wok)
			return
		}
		if wok {
			c.checks++
		}
	}
	// find visited every set bit and cleared those of free buffers.
	for _, cn := range nx.connList {
		if nz := nonzero(nx, cn); cn.maybe != nz {
			c.fail("peer %d: after a scan the mask is %016b, the set size words %016b", cn.peer, cn.maybe, nz)
			return
		}
		for buf := 0; buf < NumPkt; buf++ {
			h, ok := nx.slot(cn, buf, false)
			if cn.maybe&(1<<buf) == 0 || !ok || h.flags&(flagCont|flagZCData) == 0 {
				continue
			}
			flag := h.flags & (flagCont | flagZCData)
			got, gok := nx.findChunk(cn, flag, h.msgID, h.fullSize, false)
			want, wok := fullFindChunk(nx, cn, flag, h.msgID, h.fullSize)
			if got != want || gok != wok {
				c.fail("peer %d: findChunk(%d, %d, %d) = %+v; the full scan finds %+v", cn.peer, flag, h.msgID, h.fullSize, got, want)
				return
			}
		}
	}
}

// settled checks, between library calls, that no bit is left set over a
// free buffer: each release clears its own.
func (c *indexChecker) settled(nx *NX) {
	for _, cn := range nx.connList {
		if nz := nonzero(nx, cn); cn.maybe != nz {
			c.fail("peer %d: between calls the mask is %016b, the set size words %016b", cn.peer, cn.maybe, nz)
		}
	}
}

// The receive index (each connection's maybe mask, fed by the incoming
// region's write observer) picks exactly what a scan of every packet
// buffer picks, at every event of a seeded world: three senders on one
// receiver, one forcing DU-2copy (multi-buffer messages in continuation
// chunks), one adaptive (zero-copy scouts, and chunked zero-copy data into
// misaligned receive buffers), one forcing DU-1copy from misaligned
// sources; the receiver mixes typed and TypeAny receives, probes and self
// sends.
func TestIndexedFindMatchesFullScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		const (
			perSender = 20
			nTypes    = 3
			capacity  = 3*PayloadMax + 64
		)
		chk := &indexChecker{t: t, types: []int{TypeAny, 1, 2, 3}}
		c := cluster.Default()
		c.Eng.AddTracer(chk)
		protos := []Proto{ProtoDefault, ProtoDU2, ProtoDefault, ProtoDU1}
		finished, got := 0, make([]int, len(protos))
		c.Spawn(0, "recv", func(p *kernel.Process) {
			nx := New(c, p, 0, len(protos), Config{})
			chk.nx = nx
			rng := rand.New(rand.NewSource(seed))
			dst := p.Alloc(capacity+8, hw.WordSize)
			self := fill(p, 256, seed)
			total := perSender * (len(protos) - 1)
			for recvd := 0; recvd < total; {
				switch r := rng.Intn(10); {
				case r == 0:
					nx.Csend(1+rng.Intn(nTypes), self, 1+rng.Intn(256), 0, 0)
					total++
				case r == 1:
					typ := TypeAny
					if rng.Intn(2) == 0 {
						typ = 1 + rng.Intn(nTypes)
					}
					nx.Iprobe(typ)
				case r == 2:
					nx.Cprobe(TypeAny)
				default:
					typ := TypeAny
					if want := 1 + rng.Intn(nTypes); rng.Intn(2) == 0 && nx.Iprobe(want) {
						typ = want
					}
					at := dst
					if rng.Intn(4) == 0 {
						at++ // misaligned: a scout's data comes chunked
					}
					nx.Crecv(typ, at, capacity)
					got[nx.Infonode()]++
					recvd++
				}
				chk.settled(nx)
			}
			nx.Drain()
			finished++
		})
		for node := 1; node < len(protos); node++ {
			node := node
			c.Spawn(node, "send", func(p *kernel.Process) {
				nx := New(c, p, node, len(protos), Config{Force: protos[node]})
				rng := rand.New(rand.NewSource(seed*31 + int64(node)))
				src := fill(p, capacity+4, int64(node))
				for k := 0; k < perSender; k++ {
					n := 1 + rng.Intn(PayloadMax)
					if rng.Intn(3) == 0 {
						n = PayloadMax + 1 + rng.Intn(2*PayloadMax)
					}
					at := src
					if rng.Intn(4) == 0 {
						at += kernel.VA(1 + rng.Intn(3))
					}
					nx.Csend(1+rng.Intn(nTypes), at, n, 0, 0)
					p.Compute(hw.CallCost * time.Duration(rng.Intn(8)))
				}
				nx.Drain()
				finished++
			})
		}
		c.Run()
		c.Shutdown()
		if finished != len(protos) {
			t.Fatalf("seed %d: only %d/%d processes finished", seed, finished, len(protos))
		}
		for node := 1; node < len(protos); node++ {
			if got[node] != perSender {
				t.Errorf("seed %d: received %d messages from node %d, want %d", seed, got[node], node, perSender)
			}
		}
		if chk.checks == 0 {
			t.Fatalf("seed %d: no check ran with a message pending", seed)
		}
		t.Logf("seed %d: %d checks with a message pending", seed, chk.checks)
	}
}

// landed sets exactly the bits of the packet buffers whose size word
// [pktOff(i), pktOff(i)+4) a write [off, off+n) overlaps, for writes that
// start before, inside and past the buffers.
func TestLandedMarksOverlappedSizeWords(t *testing.T) {
	e := sim.NewEngine()
	nx := &NX{}
	nx.arrived[0] = sim.NewCond(e)
	cn := &conn{}
	cn.arrived[0] = sim.NewCond(e)
	for off := 0; off < regionBytes; off += 3 {
		for _, n := range []int{1, 2, 4, 5, PktSize - 3, PktSize, PktSize + 4, 3 * PktSize} {
			if off+n > regionBytes {
				continue
			}
			var want uint32
			for i := 0; i < NumPkt; i++ {
				if off < pktOff(i)+4 && pktOff(i) < off+n {
					want |= 1 << i
				}
			}
			cn.maybe = 0
			nx.landed(cn, off, n)
			if cn.maybe != want {
				t.Fatalf("write [%d, %d): mask %#x, want %#x", off, off+n, cn.maybe, want)
			}
		}
	}
}
