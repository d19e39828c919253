package bench

import (
	"fmt"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/nx"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

// Ablation studies for the design choices the paper discusses (Section 6):
//
//   - hardware write combining (Section 3.2's packetizer feature): measure
//     automatic-update transfers with combining on vs off, in both latency
//     and packets on the backplane;
//   - polling vs blocking (Section 6, "Polling vs. Blocking"): the same
//     ping-pong with the receiver polling a flag vs suspending on a
//     notification (signals, as in the prototype);
//   - software multicast (Section 6, "Benefits of Hardware/Software
//     Co-design": the hardware multicast was removed on the bet that
//     software multicast performs acceptably): one-to-all dissemination
//     cost, naive sequential vs binomial tree;
//   - collective scaling from the 4-node prototype to the planned 16-node
//     system.

// AblationResult is one row of an ablation table.
type AblationResult struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// CombiningAblation measures AU transfers with and without write combining.
func CombiningAblation(size int) []AblationResult {
	trial := func(combine bool) (lat float64, packets int64) {
		r := &run{}
		defer r.close()
		c := r.cluster(cluster.Config{})
		var sendAt, seenAt sim.Time
		exported := false
		ready := sim.NewCond(c.Eng)
		c.Spawn(1, "rx", func(p *kernel.Process) {
			ep := vmmc.Attach(p, c.Node(1).Daemon)
			va := p.MapPages(2, 0)
			if _, err := ep.Export(va, 2, vmmc.ExportOpts{Name: "rx"}); err != nil {
				panic(err)
			}
			exported = true
			ready.Broadcast()
			p.WaitWord(va+kernel.VA(size), func(v uint32) bool { return v == 1 })
			seenAt = p.P.Now()
		})
		c.Spawn(0, "tx", func(p *kernel.Process) {
			for !exported {
				ready.Wait(p.P)
			}
			ep := vmmc.Attach(p, c.Node(0).Daemon)
			imp, err := ep.Import(1, "rx")
			if err != nil {
				panic(err)
			}
			local := p.MapPages(2, 0)
			if _, err := ep.BindAU(local, imp, 0, 2, vmmc.AUOpts{Combine: combine}); err != nil {
				panic(err)
			}
			p.P.Sleep(time.Millisecond)
			sendAt = p.P.Now()
			p.WriteBytes(local, make([]byte, size))
			p.WriteWord(local+kernel.VA(size), 1)
		})
		c.Run()
		return seenAt.Sub(sendAt).Seconds() * 1e6, c.Mesh.PacketsDelivered
	}
	latOn, pktOn := trial(true)
	latOff, pktOff := trial(false)
	return []AblationResult{
		{Name: fmt.Sprintf("AU %dB, combining on", size), Value: latOn, Unit: "us",
			Note: fmt.Sprintf("%d backplane packets", pktOn)},
		{Name: fmt.Sprintf("AU %dB, combining off", size), Value: latOff, Unit: "us",
			Note: fmt.Sprintf("%d backplane packets", pktOff)},
	}
}

// PollVsNotifyAblation compares three receivers for a one-word delivery:
// polling a flag; suspending on a signal-based notification (the prototype
// implementation); and the active-message-style fast notification path the
// paper planned as future work ("we expect to reimplement notifications in
// a way similar to active messages, with performance much better than
// signals in the common case"). The paper: "we believe that polling is the
// right choice in the common case".
func PollVsNotifyAblation() []AblationResult {
	trial := func(notify, fast bool) float64 {
		r := &run{}
		defer r.close()
		c := r.cluster(cluster.Config{})
		var sendAt, seenAt sim.Time
		exported := false
		ready := sim.NewCond(c.Eng)
		c.Spawn(1, "rx", func(p *kernel.Process) {
			ep := vmmc.Attach(p, c.Node(1).Daemon)
			va := p.MapPages(1, 0)
			opts := vmmc.ExportOpts{Name: "rx", FastNotify: fast}
			if notify {
				opts.Handler = func(vmmc.Notification) {}
			}
			exp, err := ep.Export(va, 1, opts)
			if err != nil {
				panic(err)
			}
			exported = true
			ready.Broadcast()
			if notify {
				exp.Wait() // suspend until the notification arrives
			} else {
				p.WaitWord(va, func(v uint32) bool { return v == 1 })
			}
			seenAt = p.P.Now()
		})
		c.Spawn(0, "tx", func(p *kernel.Process) {
			for !exported {
				ready.Wait(p.P)
			}
			ep := vmmc.Attach(p, c.Node(0).Daemon)
			imp, err := ep.Import(1, "rx")
			if err != nil {
				panic(err)
			}
			src := p.Alloc(4, 4)
			p.WriteWord(src, 1)
			p.P.Sleep(time.Millisecond)
			sendAt = p.P.Now()
			if notify {
				err = ep.SendNotify(imp, 0, src, 4)
			} else {
				err = ep.Send(imp, 0, src, 4)
			}
			if err != nil {
				panic(err)
			}
		})
		c.Run()
		return seenAt.Sub(sendAt).Seconds() * 1e6
	}
	poll := trial(false, false)
	ntfy := trial(true, false)
	fast := trial(true, true)
	return []AblationResult{
		{Name: "1-word delivery, receiver polling", Value: poll, Unit: "us"},
		{Name: "1-word delivery, notification (signal)", Value: ntfy, Unit: "us",
			Note: fmt.Sprintf("%.0fx slower: why the libraries poll", ntfy/poll)},
		{Name: "1-word delivery, fast notification", Value: fast, Unit: "us",
			Note: "active-message style, the paper's planned reimplementation"},
	}
}

// MulticastAblation measures one-to-all dissemination of `size` bytes on a
// 16-node system: naive sequential sends from the root vs a binomial tree
// (each recipient forwards). This is the experiment behind the co-design
// decision to drop hardware multicast.
func MulticastAblation(size int) []AblationResult {
	trial := func(tree bool) float64 {
		const nodes = 16
		r := &run{}
		defer r.close()
		c := r.cluster(cluster.Config{MeshX: 4, MeshY: 4, MemBytes: 8 << 20})
		var start sim.Time
		var last sim.Time
		doneCount := 0
		for node := 0; node < nodes; node++ {
			node := node
			c.Spawn(node, "mcast", func(p *kernel.Process) {
				n := nx.New(c, p, node, nodes, nx.Config{})
				buf := p.Alloc(size+8, hw.WordSize)
				const typ = 77
				n.Gsync() // initialization barrier: time only the multicast
				if node == 0 {
					start = p.P.Now()
					if tree {
						// Binomial tree root: send to 8, 4, 2, 1.
						for k := nodes / 2; k >= 1; k /= 2 {
							n.Csend(typ, buf, size, node+k, 0)
						}
					} else {
						for peer := 1; peer < nodes; peer++ {
							n.Csend(typ, buf, size, peer, 0)
						}
					}
				} else {
					n.Crecv(typ, buf, size)
					if tree {
						// Forward down our subtree: node i owns
						// children i+k for k < lowbit(i).
						low := node & -node
						for k := low / 2; k >= 1; k /= 2 {
							n.Csend(typ, buf, size, node+k, 0)
						}
					}
					if t := p.P.Now(); t > last {
						last = t
					}
					doneCount++
				}
				n.Drain()
			})
		}
		c.Run()
		if doneCount != nodes-1 {
			panic("multicast incomplete")
		}
		return last.Sub(start).Seconds() * 1e6
	}
	naive := trial(false)
	tree := trial(true)
	return []AblationResult{
		{Name: fmt.Sprintf("software multicast %dB, sequential", size), Value: naive, Unit: "us",
			Note: "root sends 15 times"},
		{Name: fmt.Sprintf("software multicast %dB, binomial tree", size), Value: tree, Unit: "us",
			Note: fmt.Sprintf("%.1fx faster: software multicast is acceptable", naive/tree)},
	}
}

// CollectiveScalingAblation measures NX gsync and gdsum on 4 vs 16 nodes.
func CollectiveScalingAblation() []AblationResult {
	trial := func(nodes, meshX, meshY int) (sync, sum float64) {
		r := &run{}
		defer r.close()
		c := r.cluster(cluster.Config{MeshX: meshX, MeshY: meshY, MemBytes: 8 << 20})
		var syncT, sumT sim.Time
		for node := 0; node < nodes; node++ {
			node := node
			c.Spawn(node, "coll", func(p *kernel.Process) {
				n := nx.New(c, p, node, nodes, nx.Config{})
				n.Gsync() // warm all connections
				t0 := p.P.Now()
				n.Gsync()
				t1 := p.P.Now()
				n.Gdsum(float64(node))
				t2 := p.P.Now()
				if node == 0 {
					syncT = t1 - t0
					sumT = t2 - t1
				}
				n.Drain()
			})
		}
		c.Run()
		return syncT.Sub(0).Seconds() * 1e6, sumT.Sub(0).Seconds() * 1e6
	}
	s4, r4 := trial(4, 2, 2)
	s16, r16 := trial(16, 4, 4)
	return []AblationResult{
		{Name: "gsync, 4 nodes (prototype)", Value: s4, Unit: "us"},
		{Name: "gsync, 16 nodes (planned system)", Value: s16, Unit: "us"},
		{Name: "gdsum, 4 nodes", Value: r4, Unit: "us"},
		{Name: "gdsum, 16 nodes", Value: r16, Unit: "us",
			Note: "log-depth recursive doubling"},
	}
}

// RunAblations collects every ablation table.
func RunAblations() []AblationResult {
	var out []AblationResult
	out = append(out, CombiningAblation(4)...)
	out = append(out, CombiningAblation(256)...)
	out = append(out, PollVsNotifyAblation()...)
	out = append(out, MulticastAblation(1024)...)
	out = append(out, CollectiveScalingAblation()...)
	return out
}
