package bench

import (
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/nx"
	"shrimp/internal/sim"
)

// Figure 4: NX latency and bandwidth. Five protocol variants, as in the
// paper's graphs: AU-1copy, AU-2copy, DU-0copy, DU-1copy, DU-2copy. The
// default adaptive protocol (small: one-copy AU; large: zero-copy DU) is
// measured as a sixth series for the protocol-switch "bump" the paper
// describes.

// Fig4Variants lists the forced protocol variants of the figure.
var Fig4Variants = []nx.Proto{nx.ProtoAU1, nx.ProtoAU2, nx.ProtoDU0, nx.ProtoDU1, nx.ProtoDU2}

// NXPingPong measures NX csend/crecv round trips at one size under one
// protocol variant, returning one-way latency (us) and bandwidth (MB/s).
func NXPingPong(proto nx.Proto, size, iters int) (float64, float64) {
	r := &run{}
	defer r.close()
	return nxPingPong(r, proto, size, iters)
}

func nxPingPong(r *run, proto nx.Proto, size, iters int) (float64, float64) {
	c := r.cluster(cluster.Config{})
	var start, end sim.Time
	const typPing, typPong = 1, 2

	side := func(me, peer int) func(p *kernel.Process) {
		return func(p *kernel.Process) {
			n := nx.New(c, p, me, 2, nx.Config{Force: proto})
			buf := p.Alloc(size+8, hw.Page) // page-aligned user buffers
			p.Poke(buf, make([]byte, size+8))
			// Warm-up round trip: faults in the zero-copy exports and
			// imports, exactly as a real benchmark's warmup does.
			if me == 0 {
				n.Csend(typPing, buf, size, peer, 0)
				n.Crecv(typPong, buf, size)
			} else {
				n.Crecv(typPing, buf, size)
				n.Csend(typPong, buf, size, peer, 0)
			}
			p.P.Sleep(time.Millisecond)

			if me == 0 {
				start = p.P.Now()
				for k := 0; k < iters; k++ {
					n.Csend(typPing, buf, size, peer, 0)
					n.Crecv(typPong, buf, size)
				}
				end = p.P.Now()
			} else {
				for k := 0; k < iters; k++ {
					n.Crecv(typPing, buf, size)
					n.Csend(typPong, buf, size, peer, 0)
				}
			}
			n.Drain()
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

// Fig4 regenerates Figure 4 over the paper's sweeps.
func Fig4(iters int) *Figure {
	f := &Figure{
		ID:    "fig4",
		Title: "NX latency and bandwidth",
		Note:  "paper: AU small ~6us above hardware; large approaches raw limit; protocol-switch bump",
	}
	for _, proto := range Fig4Variants {
		s := Series{Label: proto.String()}
		for _, size := range AllSizes() {
			lat, bw := NXPingPong(proto, size, iters)
			s.Points = append(s.Points, Point{Size: size, LatencyUS: lat, MBPerSec: bw})
		}
		f.Serie = append(f.Serie, s)
	}
	s := Series{Label: "default"}
	for _, size := range AllSizes() {
		lat, bw := NXPingPong(nx.ProtoDefault, size, iters)
		s.Points = append(s.Points, Point{Size: size, LatencyUS: lat, MBPerSec: bw})
	}
	f.Serie = append(f.Serie, s)
	return f
}
