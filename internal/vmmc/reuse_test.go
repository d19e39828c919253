package vmmc

import (
	"bytes"
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
)

// A notification handler that sends while the process's own blocking send
// is waiting out its source read gets its own DU job and chunk list: both
// transfers land intact, and the nesting used a second slot.
func TestNestedSendInHandler(t *testing.T) {
	const bigPages = 4
	big := bytes.Repeat([]byte{0xa5, 0x5a, 0x01, 0x02}, bigPages*hw.Page/4)
	small := bytes.Repeat([]byte{0x77}, 64)
	c := cluster.Default()
	var bigDst, smallDst kernel.VA
	var receiver *kernel.Process
	var sender *Endpoint
	handled := 0
	done := 0
	c.Spawn(1, "receiver", func(p *kernel.Process) {
		ep := Attach(p, c.Node(1).Daemon)
		receiver = p
		bigDst = p.MapPages(bigPages, 0)
		smallDst = p.MapPages(1, 0)
		if _, err := ep.Export(bigDst, bigPages, ExportOpts{Name: "big"}); err != nil {
			t.Error(err)
			return
		}
		if _, err := ep.Export(smallDst, 1, ExportOpts{Name: "small"}); err != nil {
			t.Error(err)
			return
		}
		p.P.Sleep(time.Millisecond)
		bell, err := ep.Import(0, "bell")
		if err != nil {
			t.Error(err)
			return
		}
		// Ring node 0 while its big send is in flight.
		p.P.Sleep(5*time.Millisecond + 20*time.Microsecond - p.P.Now().Sub(0))
		if err := ep.SendNotify(bell, 0, smallDst, 4); err != nil {
			t.Error(err)
		}
		done++
	})
	c.Spawn(0, "sender", func(p *kernel.Process) {
		ep := Attach(p, c.Node(0).Daemon)
		sender = ep
		bellVA := p.MapPages(1, 0)
		var smallImp *Import
		src := p.Alloc(len(small), hw.WordSize)
		p.Poke(src, small)
		if _, err := ep.Export(bellVA, 1, ExportOpts{Name: "bell", Handler: func(Notification) {
			handled++
			if err := ep.Send(smallImp, 0, src, len(small)); err != nil {
				t.Error(err)
			}
		}}); err != nil {
			t.Error(err)
			return
		}
		p.P.Sleep(time.Millisecond)
		bigImp, err := ep.Import(1, "big")
		if err != nil {
			t.Error(err)
			return
		}
		if smallImp, err = ep.Import(1, "small"); err != nil {
			t.Error(err)
			return
		}
		bigSrc := p.Alloc(len(big), hw.WordSize)
		p.Poke(bigSrc, big)
		p.P.Sleep(5*time.Millisecond - p.P.Now().Sub(0))
		if err := ep.Send(bigImp, 0, bigSrc, len(big)); err != nil {
			t.Error(err)
		}
		done++
	})
	c.Run()
	if done != 2 || handled != 1 {
		t.Fatalf("%d/2 processes finished, handler ran %d times", done, handled)
	}
	if len(sender.duSlots) != 2 {
		t.Fatalf("%d send slots used, want 2 (the handler's send nested in the big one)", len(sender.duSlots))
	}
	if got := receiver.Peek(bigDst, len(big)); !bytes.Equal(got, big) {
		t.Error("outer send's data corrupted")
	}
	if got := receiver.Peek(smallDst, len(small)); !bytes.Equal(got, small) {
		t.Error("nested send's data corrupted")
	}
}
