package bench

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

// VMMC notifications (paper Section 2.3), which no figure takes: a
// signal-path export whose notifications queue while the receiver blocks
// them and drain in arrival order on unblock, a Wait that unblocks and
// re-blocks around itself, a discarded notification, and an export on the
// active-message-style fast path. The scenario then tears its mappings
// down both ways: one importer unimports, and the receiver unexports under
// the other, whose next send must fail.

// notifySeq lists the sending node of each signal-path transfer, in send
// order: transfers 0-1 arrive unblocked, 2-4 queue while blocked, 5 is
// taken by a Wait made while blocked, 6 queues behind that Wait's re-block,
// and 7 is discarded.
var notifySeq = [...]int{1, 2, 1, 1, 2, 1, 2, 1}

// notifyFast is the number of fast-path transfers node 1 sends.
const notifyFast = 8

// notifySettle is how long the receiver waits after a blocked or discarded
// transfer's word lands, so its notification interrupt has been taken:
// one InterruptCost with margin.
const notifySettle = 100 * time.Microsecond

// vmmcNotify runs the notification scenario on nodes 0 (the receiver) and
// 1-2 (the senders). The receiver paces the senders one transfer at a
// time, so arrival order is send order whatever the plan, and checks every
// handler call and Wait result. Node 2 unimports after its last transfer;
// node 1 keeps its imports until the receiver has unexported both buffers.
// It returns the mean delivery time in us of the unblocked signal-path
// notifications and of the fast ones, from the sender's SendNotify to the
// receiver's Wait returning.
func vmmcNotify(r *run) (signal, fast float64, err error) {
	c := r.cluster(cluster.Config{})
	var ck nxChecker
	// turn is the transfer the senders may make next: -1 until exported,
	// len(notifySeq) for the fast ones, and unexported once both buffers
	// are gone.
	turn := -1
	const unexported = len(notifySeq) + 1
	turnCond := sim.NewCond(c.Eng)
	var sentAt [len(notifySeq) + notifyFast]sim.Time
	var sigLat, fastLat time.Duration

	c.Spawn(0, "notify-rx", func(p *kernel.Process) {
		ep := vmmc.Attach(p, c.Node(0).Daemon)
		var got []int // the signal handler's SrcNodes, in call order
		va := p.MapPages(1, 0)
		sig, err := ep.Export(va, 1, vmmc.ExportOpts{Name: "sig",
			Handler: func(n vmmc.Notification) { got = append(got, n.SrcNode) }})
		if err != nil {
			ck.failf("export sig: %v", err)
			return
		}
		fastCalls := 0
		fx, err := ep.Export(p.MapPages(1, 0), 1, vmmc.ExportOpts{Name: "fast", FastNotify: true,
			Handler: func(vmmc.Notification) { fastCalls++ }})
		if err != nil {
			ck.failf("export fast: %v", err)
			return
		}
		release := func(k int) {
			turn = k
			turnCond.Broadcast()
		}
		// land releases transfer k and waits until its word is in place
		// and its notification interrupt has been taken.
		land := func(k int) {
			release(k)
			p.WaitWord(va+kernel.VA(4*k), func(v uint32) bool { return v == uint32(k+1) })
			p.P.Sleep(notifySettle)
		}
		wait := func(k int) {
			if n := sig.Wait(); n.SrcNode != notifySeq[k] {
				ck.failf("transfer %d: Wait returned node %d, want %d", k, n.SrcNode, notifySeq[k])
			}
		}
		handled := func(k int, what string) {
			if !slices.Equal(got, notifySeq[:k]) {
				ck.failf("%s: handler saw nodes %v, want %v", what, got, notifySeq[:k])
			}
		}

		for k := 0; k < 2; k++ {
			release(k)
			wait(k)
			sigLat += p.P.Now().Sub(sentAt[k])
		}
		handled(2, "unblocked")

		ep.BlockNotifications()
		for k := 2; k < 5; k++ {
			land(k)
		}
		handled(2, "blocked")
		if sig.Pending() != 0 {
			ck.failf("blocked notifications reached the buffer's queue")
		}
		ep.UnblockNotifications()
		handled(5, "unblock")
		for k := 2; k < 5; k++ {
			wait(k)
		}

		ep.BlockNotifications()
		land(5)
		wait(5) // unblocks, drains transfer 5, and blocks again
		land(6)
		handled(6, "after a Wait made while blocked")
		sig.SetDiscard(true)
		land(7)
		sig.SetDiscard(false)
		ep.UnblockNotifications()
		handled(7, "discard")
		wait(6)
		if sig.Pending() != 0 {
			ck.failf("a discarded notification was queued")
		}

		release(len(notifySeq))
		for i := 0; i < notifyFast; i++ {
			if n := fx.Wait(); n.SrcNode != 1 {
				ck.failf("fast %d: Wait returned node %d, want 1", i, n.SrcNode)
			}
			fastLat += p.P.Now().Sub(sentAt[len(notifySeq)+i])
		}
		if fastCalls != notifyFast {
			ck.failf("fast handler ran %d times, want %d", fastCalls, notifyFast)
		}

		for _, e := range []*vmmc.Export{sig, fx} {
			if err := ep.Unexport(e); err != nil {
				ck.failf("unexport: %v", err)
			}
		}
		if n := sig.Wait(); n.SrcNode != 0 || n.Export != sig {
			ck.failf("Wait on an unexported buffer returned %+v", n)
		}
		if err := ep.Unexport(sig); !errors.Is(err, vmmc.ErrRevoked) {
			ck.failf("second unexport: %v, want ErrRevoked", err)
		}
		release(unexported)
	})

	sender := func(node int) {
		c.Spawn(node, fmt.Sprintf("notify-tx%d", node), func(p *kernel.Process) {
			for turn < 0 {
				turnCond.Wait(p.P)
			}
			ep := vmmc.Attach(p, c.Node(node).Daemon)
			sig, err := ep.Import(0, "sig")
			if err != nil {
				ck.failf("node %d: import sig: %v", node, err)
				return
			}
			src := p.Alloc(4, 4)
			send := func(imp *vmmc.Import, off, k int) {
				p.WriteWord(src, uint32(k+1))
				sentAt[k] = p.P.Now()
				if err := ep.SendNotify(imp, off, src, 4); err != nil {
					ck.failf("node %d: transfer %d: %v", node, k, err)
				}
			}
			for k, from := range notifySeq {
				if from != node {
					continue
				}
				for turn < k {
					turnCond.Wait(p.P)
				}
				send(sig, 4*k, k)
			}
			if node != 1 {
				if err := ep.Unimport(sig); err != nil {
					ck.failf("node %d: unimport: %v", node, err)
				}
				if err := ep.SendNotify(sig, 0, src, 4); !errors.Is(err, vmmc.ErrRevoked) {
					ck.failf("node %d: send after unimport: %v, want ErrRevoked", node, err)
				}
				return
			}
			fx, err := ep.Import(0, "fast")
			if err != nil {
				ck.failf("import fast: %v", err)
				return
			}
			for turn < len(notifySeq) {
				turnCond.Wait(p.P)
			}
			for i := 0; i < notifyFast; i++ {
				send(fx, 4*i, len(notifySeq)+i)
			}
			for turn < unexported {
				turnCond.Wait(p.P)
			}
			if err := ep.SendNotify(sig, 0, src, 4); !errors.Is(err, vmmc.ErrRevoked) {
				ck.failf("node %d: send after unexport: %v, want ErrRevoked", node, err)
			}
		})
	}
	sender(1)
	sender(2)
	if _, err := c.RunChecked(nxBudget); err != nil {
		return 0, 0, err
	}
	us := func(d time.Duration, n int) float64 { return d.Seconds() * 1e6 / float64(n) }
	return us(sigLat, 2), us(fastLat, notifyFast), ck.err
}
