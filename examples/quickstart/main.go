// Quickstart: boot a 4-node SHRIMP, establish an import-export mapping, and
// move data between two processes' address spaces with both transfer
// strategies — deliberate update (an explicit send) and automatic update
// (plain stores to a bound page) — plus a notification.
//
// This is the core VMMC programming model from Section 2 of the paper: the
// receiver exports a buffer and has no receive operation at all; data
// appears directly in its memory, and it just checks a flag (or gets a
// notification).
//
// Run with -trace out.json to also record the run through the observability
// layer: the example prints the five most expensive spans (by total virtual
// time) and writes a Chrome trace-event file for Perfetto.
package main

import (
	"flag"
	"fmt"
	"os"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/trace"
	"shrimp/internal/vmmc"
)

func main() {
	tracePath := flag.String("trace", "", "write a Chrome trace of the run to this file")
	flag.Parse()

	var tc *trace.Collector // nil unless -trace: absent collector costs nothing
	if *tracePath != "" {
		tc = trace.New()
	}
	// 4 Pentium nodes, 2x2 mesh backplane.
	c := cluster.New(cluster.Config{Trace: tc})

	// --- Receiver: node 1 ---
	c.Spawn(1, "receiver", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(1).Daemon)

		buf := p.MapPages(1, 0) // one page of receive buffer
		exp, err := ep.Export(buf, 1, vmmc.ExportOpts{
			Name: "inbox",
			Handler: func(n vmmc.Notification) {
				fmt.Printf("[%8s] notification from node %d\n", p.P.Now(), n.SrcNode)
			},
		})
		if err != nil {
			panic(err)
		}

		// There is no receive call: poll the flag word at the end of the
		// buffer; the data precedes it (in-order delivery).
		p.WaitWord(buf+hw.Page-4, func(v uint32) bool { return v == 1 })
		msg := p.ReadBytes(buf, 64)
		fmt.Printf("[%8s] deliberate update delivered: %q\n", p.P.Now(), trim(msg))

		p.WaitWord(buf+hw.Page-4, func(v uint32) bool { return v == 2 })
		msg = p.ReadBytes(buf, 64)
		fmt.Printf("[%8s] automatic update delivered:  %q\n", p.P.Now(), trim(msg))

		exp.Wait() // suspend until the sender's notifying transfer
		fmt.Printf("[%8s] receiver done\n", p.P.Now())
	})

	// --- Sender: node 0 ---
	c.Spawn(0, "sender", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(0).Daemon)

		// Import the receiver's buffer (the SHRIMP daemons cooperate
		// over the Ethernet to set up the mapping).
		var imp *vmmc.Import
		for {
			var err error
			imp, err = ep.Import(1, "inbox")
			if err == nil {
				break
			}
			p.P.Sleep(200 * 1000) // receiver not exported yet; retry
		}

		// 1. Deliberate update: an explicit, blocking send from our
		// memory into the imported buffer.
		src := p.Alloc(64, hw.WordSize)
		p.WriteBytes(src, []byte("hello from deliberate update"))
		if err := ep.Send(imp, 0, src, 64); err != nil {
			panic(err)
		}
		flag := p.Alloc(4, 4)
		p.WriteWord(flag, 1)
		if err := ep.Send(imp, hw.Page-4, flag, 4); err != nil {
			panic(err)
		}

		// 2. Automatic update: bind a local page to the imported buffer;
		// every store to it propagates with no explicit send at all.
		local := p.MapPages(1, 0)
		if _, err := ep.BindAU(local, imp, 0, 1, vmmc.AUOpts{Combine: true}); err != nil {
			panic(err)
		}
		p.WriteBytes(local, []byte("hello from automatic update!"))
		p.WriteWord(local+hw.Page-4, 2)

		// 3. A notifying transfer: interrupts the receiver and runs its
		// handler (the control-transfer mechanism).
		p.WriteWord(flag, 3)
		if err := ep.SendNotify(imp, hw.Page-8, flag, 4); err != nil {
			panic(err)
		}
		fmt.Printf("[%8s] sender done\n", p.P.Now())
	})

	c.Run()
	fmt.Println("simulation drained; all processes finished")

	if *tracePath != "" {
		if err := tc.WriteChromeTrace(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s — load it in Perfetto (ui.perfetto.dev)\n", *tracePath)
		fmt.Println("top 5 spans by total virtual time:")
		tc.WriteTopSpans(os.Stdout, 5)
	}
}

func trim(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
