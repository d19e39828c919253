package bench

import (
	"fmt"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/fault"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/socket"
	"shrimp/internal/trace"
	"shrimp/internal/vmmc"
)

// Figure 7: socket latency and bandwidth, three variants (AU-2copy,
// DU-1copy, DU-2copy), ping-pong methodology as for the other libraries.

// Fig7Modes lists the figure's protocol variants.
var Fig7Modes = []socket.Mode{socket.ModeAU2, socket.ModeDU1, socket.ModeDU2}

// socketPair runs server/client bodies over one established connection.
func socketPair(r *run, mode socket.Mode, server, client func(c *socket.Conn, p *kernel.Process)) {
	cl := r.cluster(cluster.Config{})
	cl.Spawn(1, "server", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(1).Daemon)
		lib := socket.New(ep, cl.Ether, 1, mode)
		ln := lib.Listen(5001)
		conn, err := ln.Accept()
		if err != nil {
			panic(err)
		}
		server(conn, p)
	})
	cl.Spawn(0, "client", func(p *kernel.Process) {
		ep := vmmc.Attach(p, cl.Node(0).Daemon)
		lib := socket.New(ep, cl.Ether, 0, mode)
		conn, err := lib.Connect(1, 5001)
		if err != nil {
			panic(err)
		}
		client(conn, p)
	})
	cl.Run()
}

// SocketPingPong measures one-way latency (us) and ping-pong bandwidth
// (MB/s) at one message size.
func SocketPingPong(mode socket.Mode, size, iters int) (float64, float64) {
	r := &run{}
	defer r.close()
	return socketPingPong(r, mode, size, iters)
}

func socketPingPong(r *run, mode socket.Mode, size, iters int) (float64, float64) {
	var start, end sim.Time
	socketPair(r, mode,
		func(c *socket.Conn, p *kernel.Process) {
			buf := p.Alloc(size+8, hw.WordSize)
			for i := 0; i < iters+1; i++ {
				if n, err := c.RecvAll(buf, size); err != nil || n != size {
					panic("pong recv failed")
				}
				if _, err := c.Send(buf, size); err != nil {
					panic(err)
				}
			}
		},
		func(c *socket.Conn, p *kernel.Process) {
			buf := p.Alloc(size+8, hw.WordSize)
			p.Poke(buf, make([]byte, size))
			// Warm-up round trip. A silently failed send or recv would turn
			// the measured loop into a timeout benchmark, so every round
			// trip is checked.
			if _, err := c.Send(buf, size); err != nil {
				panic(err)
			}
			if _, err := c.RecvAll(buf, size); err != nil {
				panic(err)
			}
			p.P.Sleep(time.Millisecond)
			start = p.P.Now()
			for i := 0; i < iters; i++ {
				if _, err := c.Send(buf, size); err != nil {
					panic(err)
				}
				if _, err := c.RecvAll(buf, size); err != nil {
					panic(err)
				}
			}
			end = p.P.Now()
		})
	total := end.Sub(start).Seconds()
	lat := total / float64(2*iters) * 1e6
	bw := float64(2*iters*size) / total / 1e6
	return lat, bw
}

// SocketStream measures one-way streaming bandwidth (the paper's "our own
// one-way transfer microbenchmark"): the sender continuously pumps `count`
// buffers of `size` bytes; bandwidth is total bytes over total time.
// perWriteOverhead and perByte model the measuring application's own costs
// (zero for the library microbenchmark; nonzero for ttcp). tc, which may be
// nil, observes the run (cmd/ttcp's -trace/-stats). drop == 0 runs on the
// raw backplane with no fault plan; drop > 0 drops each link packet with
// that probability under the injector seed, with the retransmit sublayer on
// (cmd/ttcp's -drop). The sublayer's retransmit count comes back with the
// bandwidth.
func SocketStream(mode socket.Mode, size, count int, perWriteOverhead, perByte time.Duration, tc *trace.Collector, drop float64, seed int64) (float64, int64) {
	r := &run{trace: tc}
	if drop > 0 {
		r.mod = underPlan(fault.Plan{
			Name: fmt.Sprintf("drop-%g%%", drop*100),
			Link: fault.LinkFaults{DropProb: drop},
		}, seed)
	}
	defer r.close()
	return socketStream(r, mode, size, count, perWriteOverhead, perByte), r.retransmits()
}

func socketStream(r *run, mode socket.Mode, size, count int, perWriteOverhead, perByte time.Duration) float64 {
	var start, end sim.Time
	socketPair(r, mode,
		func(c *socket.Conn, p *kernel.Process) {
			buf := p.Alloc(size+8, hw.WordSize)
			total := size * count
			got := 0
			for got < total {
				n, err := c.Recv(buf, size)
				if err != nil {
					panic(err)
				}
				if n == 0 {
					break
				}
				if perWriteOverhead > 0 {
					// The measuring application processes each
					// buffer it reads, too.
					p.Compute(perWriteOverhead + time.Duration(n)*perByte)
				}
				got += n
			}
			end = p.P.Now()
		},
		func(c *socket.Conn, p *kernel.Process) {
			buf := p.Alloc(size+8, hw.WordSize)
			p.Poke(buf, make([]byte, size))
			start = p.P.Now()
			for i := 0; i < count; i++ {
				if perWriteOverhead > 0 {
					p.Compute(perWriteOverhead + time.Duration(size)*perByte)
				}
				if _, err := c.Send(buf, size); err != nil {
					panic(err)
				}
			}
			if err := c.Close(); err != nil {
				panic(err)
			}
		})
	return float64(size*count) / end.Sub(start).Seconds() / 1e6
}

// Fig7 regenerates Figure 7.
func Fig7(iters int) *Figure {
	f := &Figure{
		ID:    "fig7",
		Title: "Socket latency and bandwidth",
		Note:  "paper: small messages ~13us above the hardware limit; large close to the 1-copy hardware limit",
	}
	for _, mode := range Fig7Modes {
		s := Series{Label: mode.String()}
		for _, size := range AllSizes() {
			lat, bw := SocketPingPong(mode, size, iters)
			s.Points = append(s.Points, Point{Size: size, LatencyUS: lat, MBPerSec: bw})
		}
		f.Serie = append(f.Serie, s)
	}
	return f
}

// TTCP reproduces the paper's Section 4.3 ttcp results. The ttcp
// application's own per-write and per-byte (pattern generation, option
// processing, accounting) overheads are calibrated against the paper's two
// reported points; the library microbenchmark runs with none.
type TTCPResult struct {
	TTCP7K       float64 // ttcp, 7 KB buffers (paper: 8.6 MB/s)
	Micro7K      float64 // one-way microbenchmark, 7 KB (paper: 9.8 MB/s)
	TTCP70       float64 // ttcp, 70 B buffers (paper: 1.3 MB/s, above Ethernet peak)
	EthernetPeak float64 // 10 Mb/s = 1.25 MB/s
}

// TTCP application overheads (see TTCPResult). Calibrated so the 70-byte
// point reproduces the paper's 1.3 MB/s; at 7 KB the simulated pipeline
// overlaps application processing with the incoming DMA better than the
// prototype did, so the large-buffer points run ~25% above the paper's
// (see EXPERIMENTS.md).
const (
	TTCPPerWrite = 34 * time.Microsecond
	TTCPPerByte  = 24 * time.Nanosecond
)

// RunTTCP measures the three ttcp numbers.
func RunTTCP() TTCPResult {
	stream := func(size, count int, perWrite, perByte time.Duration) float64 {
		mbps, _ := SocketStream(socket.ModeDU1, size, count, perWrite, perByte, nil, 0, 0)
		return mbps
	}
	return TTCPResult{
		TTCP7K:       stream(7168, 64, TTCPPerWrite, TTCPPerByte),
		Micro7K:      stream(7168, 64, 0, 0),
		TTCP70:       stream(70, 600, TTCPPerWrite, TTCPPerByte),
		EthernetPeak: 1.25,
	}
}
