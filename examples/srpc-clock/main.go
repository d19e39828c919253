// srpc-clock: the specialized (non-compatible) SHRIMP RPC system with
// srpcgen-generated stubs — the paper's Section 5. The Clock service's
// interface definition lives in internal/srpc/srpctest/clock.idl; its
// generated client stub, server interface, and dispatch loop are used here
// exactly as an application would use them.
//
// Watch the timings: a null call round-trips in ~9.5 us — two one-word
// automatic-update transfers plus under a microsecond of software — and
// INOUT data returns with no explicit reply transfer at all (the server's
// stub writes propagate to the client in the background).
package main

import (
	"bytes"
	"fmt"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/srpc"
	"shrimp/internal/srpc/srpctest"
	"shrimp/internal/vmmc"
)

// clockServer implements the generated srpctest.ClockServer interface.
type clockServer struct {
	offset int64
}

func (s *clockServer) Now() (uint32, uint32) { return 1996<<16 | 5, 23 } // May 1996, ISCA '23rd

func (s *clockServer) Adjust(delta int32, scale float64) (bool, int64) {
	s.offset += int64(float64(delta) * scale)
	return true, s.offset
}

func (s *clockServer) Null(data *srpc.Ref) {
	// Nothing: the stub has already seeded the INOUT data into the
	// outgoing buffer, so it returns to the client implicitly.
}

func (s *clockServer) Fill(value uint32, data *srpc.Ref) {
	// Every Store through the Ref streams to the client via automatic
	// update while this procedure runs.
	buf := bytes.Repeat([]byte{byte(value)}, data.Len())
	data.Store(0, buf)
}

func (s *clockServer) Sum(data srpc.View) uint64 {
	var total uint64
	for _, b := range data.Bytes() {
		total += uint64(b)
	}
	return total
}

func main() {
	c := cluster.Default()
	ready := sim.NewCond(c.Eng)
	up := false

	c.Spawn(1, "clockd", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(1).Daemon)
		ln := srpc.Listen(ep, c.Ether, 1, 600)
		up = true
		ready.Broadcast()
		b, err := ln.Accept()
		if err != nil {
			panic(err)
		}
		srpctest.ServeClock(b, &clockServer{}, 20)
	})

	c.Spawn(0, "client", func(p *kernel.Process) {
		for !up {
			ready.Wait(p.P)
		}
		ep := vmmc.Attach(p, c.Node(0).Daemon)
		b, err := srpc.Bind(ep, c.Ether, 1, 600, 0)
		if err != nil {
			panic(err)
		}
		cli := &srpctest.ClockClient{B: b}

		sec, usec := cli.Now()
		fmt.Printf("now() = %d.%06d\n", sec, usec)

		ok, total := cli.Adjust(100, 0.5)
		fmt.Printf("adjust(100, 0.5) = %v, offset now %d\n", ok, total)

		// Time a run of null calls.
		cli.Now() // warm
		t0 := p.P.Now()
		const iters = 10
		for i := 0; i < iters; i++ {
			cli.Now()
		}
		rt := p.P.Now().Sub(t0) / iters
		fmt.Printf("null call roundtrip: %v (paper: 9.5us)\n", rt)

		// INOUT bytes come back without an explicit reply transfer.
		msg := []byte("virtual memory-mapped communication")
		view := cli.Null(msg)
		fmt.Printf("null(INOUT %dB) returned %q\n", len(msg), view.Peek())

		// The server writes through its reference; we see the result.
		filled := cli.Fill(0x5A, make([]byte, 64))
		fmt.Printf("fill(0x5A, 64B): first/last byte %#x/%#x\n",
			filled.Peek()[0], filled.Peek()[63])

		sum := cli.Sum([]byte{1, 2, 3, 4, 5, 6, 7, 8})
		fmt.Printf("sum(1..8) = %d\n", sum)
	})

	c.Run()
}
