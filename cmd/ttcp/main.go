// Command ttcp is a port of the ttcp network benchmark (originally from the
// Army Ballistics Research Lab; the paper uses version 1.12) running over
// the simulated SHRIMP socket library. It boots a 4-node SHRIMP, runs the
// classic one-way transmit/receive pair, and reports bandwidth like the
// original tool. Both endpoints live in one simulation, so a single
// invocation plays both the -t and -r roles.
//
// Usage:
//
//	ttcp [-l buflen] [-n numbufs] [-m AU-2copy|DU-1copy|DU-2copy] [-raw]
//	     [-drop P] [-faultseed N] [-trace out.json] [-stats]
//
// -l and -n must be at least 1. -raw disables the ttcp application-overhead
// model and reports the pure library streaming rate (the paper's "our own
// microbenchmark"). -drop runs the stream over a deterministically lossy
// backplane: each mesh packet is dropped with probability P (e.g. 0.01 =
// 1%), the link-level retransmit sublayer is enabled to recover, and the
// report adds the retransmit count — degraded-mode ttcp. -faultseed picks
// the fault stream. -trace writes a Chrome trace-event JSON of the run and
// -stats prints the span/counter summary; both observe the same run that
// produced the reported bandwidth.
package main

import (
	"flag"
	"fmt"
	"os"

	"shrimp/internal/bench"
	"shrimp/internal/socket"
	"shrimp/internal/trace"
)

func main() {
	buflen := flag.Int("l", 7168, "length of buffers written/read")
	numbufs := flag.Int("n", 64, "number of buffers to send")
	modeStr := flag.String("m", "DU-1copy", "socket protocol variant")
	raw := flag.Bool("raw", false, "library microbenchmark (no ttcp app overhead)")
	drop := flag.Float64("drop", 0, "per-packet drop probability; >0 enables the lossy backplane + retransmit sublayer")
	faultSeed := flag.Int64("faultseed", 1, "fault injector seed for -drop")
	tracePath := flag.String("trace", "", "write a Chrome trace of the run to this file")
	stats := flag.Bool("stats", false, "print the run's trace summary")
	flag.Parse()

	var mode socket.Mode
	switch *modeStr {
	case "AU-2copy":
		mode = socket.ModeAU2
	case "DU-1copy":
		mode = socket.ModeDU1
	case "DU-2copy":
		mode = socket.ModeDU2
	default:
		fmt.Fprintf(os.Stderr, "ttcp: unknown mode %q\n", *modeStr)
		os.Exit(2)
	}

	if err := checkFlags(*buflen, *numbufs, *drop); err != nil {
		fmt.Fprintf(os.Stderr, "ttcp: %v\n", err)
		os.Exit(2)
	}

	perWrite, perByte := bench.TTCPPerWrite, bench.TTCPPerByte
	label := "ttcp"
	if *raw {
		perWrite, perByte = 0, 0
		label = "microbenchmark"
	}

	var tc *trace.Collector
	if *tracePath != "" || *stats {
		tc = trace.New()
	}

	total := *buflen * *numbufs
	mbps, retrans := bench.SocketStream(mode, *buflen, *numbufs, perWrite, perByte, tc, *drop, *faultSeed)
	secs := float64(total) / (mbps * 1e6)

	fmt.Printf("ttcp-t: buflen=%d, nbuf=%d, port=5001 (%s, SHRIMP sockets)\n", *buflen, *numbufs, mode)
	fmt.Printf("ttcp-t: %d bytes in %.3f real seconds = %.2f MB/sec (%s)\n",
		total, secs, mbps, label)
	fmt.Printf("ttcp-r: %d bytes received OK\n", total)
	if *drop > 0 {
		fmt.Printf("ttcp-t: lossy backplane: drop=%.3g%%, seed=%d, %d link-level retransmits\n",
			*drop*100, *faultSeed, retrans)
	}

	if *tracePath != "" {
		if err := tc.WriteChromeTrace(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "ttcp: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d spans)\n", *tracePath, len(tc.Spans()))
	}
	if *stats {
		fmt.Println()
		fmt.Print(tc.Summary())
	}
}

// checkFlags rejects the flag values the stream cannot run with: a buffer
// length or count below one, and a drop probability outside [0, 1).
func checkFlags(buflen, numbufs int, drop float64) error {
	switch {
	case buflen < 1:
		return fmt.Errorf("-l %d: want at least 1", buflen)
	case numbufs < 1:
		return fmt.Errorf("-n %d: want at least 1", numbufs)
	case drop < 0 || drop >= 1:
		return fmt.Errorf("-drop %v outside [0, 1)", drop)
	}
	return nil
}
