package bench

import (
	"fmt"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

// Figure 3: latency and bandwidth delivered by the raw SHRIMP VMMC layer,
// using the paper's four transfer strategies:
//
//   AU-1copy — sender copies user data into an AU-bound page (the copy IS
//              the send); receiver consumes directly from the receive buffer.
//   AU-2copy — as above, plus a receiver-side copy into user memory.
//   DU-0copy — deliberate update straight from the sender's user buffer into
//              the receiver's user buffer (both word-aligned); no copies.
//   DU-1copy — deliberate update into a receive buffer; receiver copies out.
//
// Each strategy runs the paper's ping-pong: the flag word sits immediately
// after the message data so data+flag travel together (one DU transfer, or
// one combined AU packet train), and the receiver polls the flag.

// Strategy names for Figure 3.
const (
	AU1copy = "AU-1copy"
	AU2copy = "AU-2copy"
	DU0copy = "DU-0copy"
	DU1copy = "DU-1copy"
	// AU1copyUncached is the off-graph variant the paper quotes in text:
	// automatic update with caching disabled on the bound pages.
	AU1copyUncached = "AU-1copy-uncached"
)

// Fig3Strategies lists the paper's four raw-VMMC variants.
var Fig3Strategies = []string{AU1copy, AU2copy, DU0copy, DU1copy}

// VMMCPingPong measures one strategy at one message size over iters
// round trips and returns one-way latency (us) and bandwidth (MB/s).
func VMMCPingPong(strategy string, size, iters int) (float64, float64) {
	r := &run{}
	defer r.close()
	return vmmcPingPong(r, strategy, size, iters)
}

func vmmcPingPong(r *run, strategy string, size, iters int) (float64, float64) {
	if size%hw.WordSize != 0 {
		panic("vmmc ping-pong sizes must be word multiples")
	}
	c := r.cluster(cluster.Config{})
	pages := (size+4)/hw.Page + 2

	ready := sim.NewCond(c.Eng)
	readyCount := 0
	var start, end sim.Time

	side := func(me, peer int) func(p *kernel.Process) {
		return func(p *kernel.Process) {
			ep := vmmc.Attach(p, c.Node(me).Daemon)
			recv := p.MapPages(pages, 0)
			if _, err := ep.Export(recv, pages, vmmc.ExportOpts{Name: fmt.Sprintf("buf%d", me)}); err != nil {
				panic(err)
			}
			// Export before import: rendezvous so both exports exist.
			readyCount++
			ready.Broadcast()
			for readyCount < 2 {
				ready.Wait(p.P)
			}
			imp, err := ep.Import(peer, fmt.Sprintf("buf%d", peer))
			if err != nil {
				panic(err)
			}

			// User buffers. The send buffer holds message + flag word so
			// one transfer carries both.
			user := p.Alloc(size+8, hw.WordSize)
			p.Poke(user, make([]byte, size+8))

			var bind kernel.VA // AU-bound staging region
			au := strategy == AU1copy || strategy == AU2copy || strategy == AU1copyUncached
			if au {
				bind = p.MapPages(pages, 0)
				opts := vmmc.AUOpts{Combine: true, Uncached: strategy == AU1copyUncached}
				if _, err := ep.BindAU(bind, imp, 0, pages, opts); err != nil {
					panic(err)
				}
			}
			flagOff := size // flag immediately after data

			send := func(seq uint32) {
				if au {
					// The copy into the bound pages is the send; data
					// and flag are consecutive stores, so the hardware
					// combines them into the same packet train.
					p.CopyVA(bind, user, size)
					p.WriteWord(bind+kernel.VA(flagOff), seq)
					return
				}
				// DU: write the flag after the data in the source
				// buffer, then one deliberate update moves both.
				p.WriteWord(user+kernel.VA(flagOff), seq)
				if err := ep.Send(imp, 0, user, size+4); err != nil {
					panic(err)
				}
			}
			recvMsg := func(seq uint32) {
				p.WaitWord(recv+kernel.VA(flagOff), func(v uint32) bool { return v == seq })
				switch strategy {
				case AU2copy, DU1copy:
					p.CopyVA(user, recv, size)
				}
			}

			// Rendezvous again after AU bindings exist, so no side
			// starts before the other can receive.
			readyCount++
			ready.Broadcast()
			for readyCount < 4 {
				ready.Wait(p.P)
			}
			p.P.Sleep(time.Millisecond)

			if me == 0 {
				start = p.P.Now()
				for k := 1; k <= iters; k++ {
					send(uint32(k))
					recvMsg(uint32(k))
				}
				end = p.P.Now()
			} else {
				for k := 1; k <= iters; k++ {
					recvMsg(uint32(k))
					send(uint32(k))
				}
			}
		}
	}

	c.Spawn(0, "ping", side(0, 1))
	c.Spawn(1, "pong", side(1, 0))
	c.Run()

	total := end.Sub(start).Seconds()
	lat := total / float64(2*iters) * 1e6
	bw := float64(2*iters*size) / total / 1e6
	return lat, bw
}

// Fig3 regenerates Figure 3 over the paper's size sweeps.
func Fig3(iters int) *Figure {
	f := &Figure{
		ID:    "fig3",
		Title: "Latency and bandwidth delivered by the SHRIMP VMMC layer",
		Note:  "paper: AU 1-word 4.75us, DU 1-word 7.6us, DU-0copy max ~23MB/s",
	}
	for _, strat := range Fig3Strategies {
		s := Series{Label: strat}
		for _, size := range AllSizes() {
			lat, bw := VMMCPingPong(strat, size, iters)
			s.Points = append(s.Points, Point{Size: size, LatencyUS: lat, MBPerSec: bw})
		}
		f.Serie = append(f.Serie, s)
	}
	return f
}

// Peak reproduces the Section 3.4 headline numbers as a small table.
type PeakResult struct {
	AUWordWTus       float64 // automatic update, write-through cached
	AUWordUncachedUS float64
	DUWordUS         float64
	DU0copyMBs       float64 // at 10 KB
	AU1copyMBs       float64
}

// RunPeak measures the headline §3.4 numbers.
func RunPeak() PeakResult {
	var r PeakResult
	r.AUWordWTus, _ = VMMCPingPong(AU1copy, 4, 16)
	r.DUWordUS, _ = VMMCPingPong(DU0copy, 4, 16)
	_, r.DU0copyMBs = VMMCPingPong(DU0copy, 10240, 8)
	_, r.AU1copyMBs = VMMCPingPong(AU1copy, 10240, 8)
	r.AUWordUncachedUS, _ = VMMCPingPong(AU1copyUncached, 4, 16)
	return r
}
