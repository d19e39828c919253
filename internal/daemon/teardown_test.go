package daemon

import (
	"errors"
	"testing"
	"time"

	"shrimp/internal/ether"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
)

// Doubled-teardown semantics: Unimport and Unexport are idempotent in the
// sense that a second call fails with a typed sentinel (errors.Is), never
// a panic or a string to match on. Teardown races — a revocation crossing
// an unimport, a crash reaping mappings an app later tears down — make
// double teardown a normal event, not a bug.

func TestDoubleUnimportIsSentinel(t *testing.T) {
	r := newRig(t)
	var expRec *ExportRec
	exported := sim.NewCond(r.eng)
	r.m[1].Spawn("exporter", func(p *kernel.Process) {
		va := p.MapPages(1, 0)
		var err error
		expRec, err = r.d[1].Export(p, "buf", va, 1, false, false, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		exported.Broadcast()
	})
	done := false
	r.m[0].Spawn("importer", func(p *kernel.Process) {
		for expRec == nil {
			exported.Wait(p.P)
		}
		imp, err := r.d[0].Import(p, 1, "buf")
		if err != nil {
			t.Error(err)
			return
		}
		if err := r.d[0].Unimport(p, imp); err != nil {
			t.Errorf("first unimport: %v", err)
		}
		err = r.d[0].Unimport(p, imp)
		if !errors.Is(err, ErrReleased) {
			t.Errorf("second unimport = %v, want ErrReleased", err)
		}
		// Third time is the same sentinel — stable, not state-dependent.
		if err := r.d[0].Unimport(p, imp); !errors.Is(err, ErrReleased) {
			t.Errorf("third unimport = %v, want ErrReleased", err)
		}
		done = true
	})
	r.eng.RunAll()
	if !done {
		t.Fatal("importer never finished")
	}
}

func TestDoubleUnexportIsSentinel(t *testing.T) {
	r := newRig(t)
	done := false
	r.m[1].Spawn("exporter", func(p *kernel.Process) {
		va := p.MapPages(1, 0)
		rec, err := r.d[1].Export(p, "buf", va, 1, false, false, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := r.d[1].Unexport(p, rec); err != nil {
			t.Errorf("first unexport: %v", err)
		}
		err = r.d[1].Unexport(p, rec)
		if !errors.Is(err, ErrRevoked) {
			t.Errorf("second unexport = %v, want ErrRevoked", err)
		}
		done = true
	})
	r.eng.RunAll()
	if !done {
		t.Fatal("exporter never finished")
	}
}

// TestUnimportAfterRevocation: the exporter revokes first; the importer's
// own teardown afterwards must report the mapping already released.
func TestUnimportAfterRevocation(t *testing.T) {
	r := newRig(t)
	var expRec *ExportRec
	exported := sim.NewCond(r.eng)
	imported := sim.NewCond(r.eng)
	var importedFlag bool
	r.m[1].Spawn("exporter", func(p *kernel.Process) {
		va := p.MapPages(1, 0)
		var err error
		expRec, err = r.d[1].Export(p, "buf", va, 1, false, false, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		exported.Broadcast()
		for !importedFlag {
			imported.Wait(p.P)
		}
		if err := r.d[1].Unexport(p, expRec); err != nil {
			t.Errorf("unexport: %v", err)
		}
	})
	done := false
	r.m[0].Spawn("importer", func(p *kernel.Process) {
		for expRec == nil {
			exported.Wait(p.P)
		}
		imp, err := r.d[0].Import(p, 1, "buf")
		if err != nil {
			t.Error(err)
			return
		}
		importedFlag = true
		imported.Broadcast()
		// Let the revocation land.
		for !imp.Released() {
			p.P.Sleep(100 * time.Microsecond)
		}
		if err := r.d[0].Unimport(p, imp); !errors.Is(err, ErrReleased) {
			t.Errorf("unimport after revocation = %v, want ErrReleased", err)
		}
		done = true
	})
	r.eng.RunAll()
	if !done {
		t.Fatal("importer never finished")
	}
}

// TestRetriedImportCountsOnce: a 1,400-page import's reply (5,664 B) takes
// 5.59 ms on the 10 Mb/s Ethernet, past the 5 ms RPC deadline, so Import
// retries and its retry takes the first attempt's late reply. The exporter
// must still hold one reference per Import call: after three such imports
// and the release of one, the importer's crash reaps exactly two.
func TestRetriedImportCountsOnce(t *testing.T) {
	const pages = 1400
	r := newRigSized(t, 8<<20, 3*pages)
	var expRec *ExportRec
	exported := sim.NewCond(r.eng)
	r.m[1].Spawn("exporter", func(p *kernel.Process) {
		va := p.MapPages(pages, 0)
		var err error
		expRec, err = r.d[1].Export(p, "big", va, pages, false, false, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		exported.Broadcast()
	})
	var took time.Duration
	r.m[0].Spawn("importer", func(p *kernel.Process) {
		for expRec == nil {
			exported.Wait(p.P)
		}
		start := p.P.Now()
		imp1, err := r.d[0].Import(p, 1, "big")
		if err != nil {
			t.Error(err)
			return
		}
		took = p.P.Now().Sub(start)
		for i := 0; i < 2; i++ {
			if _, err := r.d[0].Import(p, 1, "big"); err != nil {
				t.Error(err)
				return
			}
		}
		if err := r.d[0].Unimport(p, imp1); err != nil {
			t.Error(err)
			return
		}
		r.eth.Inject(ether.Addr{Node: 1, Port: Port}, 32, DeadNode{Node: 0})
	})
	r.eng.RunAll()
	if t.Failed() {
		return
	}
	if took <= 5*time.Millisecond {
		t.Fatalf("import took %v; the case needs a reply that outlasts the 5ms deadline", took)
	}
	if got := r.d[1].ReapedExportRefs; got != 2 {
		t.Fatalf("crash of the importer reaped %d references, want the 2 still imported", got)
	}
}
