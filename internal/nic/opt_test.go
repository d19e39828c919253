package nic

import (
	"fmt"
	"math/rand"
	"testing"

	"shrimp/internal/kernel"
	"shrimp/internal/mem"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
)

// board builds a lone NIC with an OPT of the given capacity.
func board(capacity int) *NIC {
	e := sim.NewEngine()
	return New(kernel.NewMachine(0, e, 1<<20), mesh.NewDims(e, []int{1, 1}), 0, capacity)
}

// optModel is the OPT as it was before the table grew on demand: every
// entry present from the start, reservations found first-fit.
type optModel struct {
	opt  []OPTEntry
	used []bool
}

func (md *optModel) alloc(count int) (int, bool) {
	run := 0
	for i := range md.used {
		if md.used[i] {
			run = 0
			continue
		}
		if run++; run == count {
			for j := i - count + 1; j <= i; j++ {
				md.used[j] = true
			}
			return i - count + 1, true
		}
	}
	return 0, false
}

func (md *optModel) free(base, count int) {
	for i := base; i < base+count; i++ {
		md.opt[i], md.used[i] = OPTEntry{}, false
	}
}

// optSlot is one valid OPT entry at its index.
type optSlot struct {
	Idx int
	E   OPTEntry
}

// state renders the model's table as optState renders a board's.
func (md *optModel) state() string {
	var opt []optSlot
	var res []int
	for i, e := range md.opt {
		if e.Valid {
			opt = append(opt, optSlot{Idx: i, E: e})
		}
		if md.used[i] {
			res = append(res, i)
		}
	}
	return fmt.Sprintf("%d %+v %v", len(md.opt), opt, res)
}

// optState walks the board's whole OPT: its capacity, every valid entry,
// and every reserved index, ascending. Entries past the materialized
// prefix read as invalid and unreserved.
func optState(n *NIC) string {
	var opt []optSlot
	var res []int
	for i, e := range n.opt {
		if e.Valid {
			opt = append(opt, optSlot{Idx: i, E: e})
		}
		if n.optUsed[i] {
			res = append(res, i)
		}
	}
	return fmt.Sprintf("%d %+v %v", n.optCap, opt, res)
}

// TestOPTMatchesEagerModel drives seeded random AllocOPT, SetOPT and
// FreeOPT sequences against the eagerly allocated first-fit model: the same
// indices must be handed out (or refused), every entry must read back the
// same, and a walk of the whole table must equal the model's.
func TestOPTMatchesEagerModel(t *testing.T) {
	const capacity = 96
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := board(capacity)
		md := &optModel{opt: make([]OPTEntry, capacity), used: make([]bool, capacity)}
		type run struct{ base, count int }
		var live []run
		for step := 0; step < 300; step++ {
			if len(live) == 0 || rng.Intn(3) != 0 {
				count := 1 + rng.Intn(12)
				base, err := n.AllocOPT(count)
				wantBase, ok := md.alloc(count)
				if (err == nil) != ok || (ok && base != wantBase) {
					t.Fatalf("seed %d step %d: AllocOPT(%d) = %d,%v, want %d,%v", seed, step, count, base, err, wantBase, ok)
				}
				if ok {
					live = append(live, run{base, count})
					for i := base; i < base+count; i++ {
						e := OPTEntry{Valid: true, DstNode: 1, DstPFN: mem.PFN(rng.Intn(500)), Combine: rng.Intn(2) == 0}
						n.SetOPT(i, e)
						md.opt[i] = e
					}
				}
			} else {
				k := rng.Intn(len(live))
				n.FreeOPT(live[k].base, live[k].count)
				md.free(live[k].base, live[k].count)
				live = append(live[:k], live[k+1:]...)
			}
			if got, want := optState(n), md.state(); got != want {
				t.Fatalf("seed %d step %d: OPT\n got %s\nwant %s", seed, step, got, want)
			}
			for i := 0; i < capacity; i++ {
				if n.GetOPT(i) != md.opt[i] {
					t.Fatalf("seed %d step %d: entry %d = %+v, want %+v", seed, step, i, n.GetOPT(i), md.opt[i])
				}
			}
		}
	}
}

// A board's OPT costs nothing until it is programmed, and never grows past
// the entries reserved or programmed; OPTSize still reports the capacity.
func TestOPTGrowsOnDemand(t *testing.T) {
	n := board(4096)
	if len(n.opt) != 0 || n.OPTSize() != 4096 {
		t.Fatalf("fresh board: %d entries materialized, OPTSize %d", len(n.opt), n.OPTSize())
	}
	if _, err := n.AllocOPT(3); err != nil {
		t.Fatal(err)
	}
	if len(n.opt) != 3 || len(n.optUsed) != 3 {
		t.Fatalf("after AllocOPT(3): %d entries, %d reservation bits", len(n.opt), len(n.optUsed))
	}
	if _, err := n.AllocOPT(4097); err == nil {
		t.Fatal("AllocOPT beyond the capacity succeeded")
	}
}
