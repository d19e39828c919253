package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSparseMatchesMapModel drives seeded random writes and reads of a
// Sparse, from its zero value, against a map. An index whose chunk was never written (untouched
// chunks, and indices past the root) must read nil; every other index reads
// what the model holds, zero if only its neighbours were written. All must
// visit exactly the entries of the written chunks, in index order.
func TestSparseMatchesMapModel(t *testing.T) {
	const span = 16 << sparseShift // indices drawn from 16 chunks
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s Sparse[int]
		s.All(func(i int, _ *int) bool {
			t.Fatalf("All visited %d on the zero table", i)
			return false
		})
		model := map[int]int{}
		chunks := map[int]bool{}
		for step := 0; step < 400; step++ {
			i := rng.Intn(span)
			if rng.Intn(3) == 0 {
				v := rng.Int()
				*s.W(i) = v
				model[i] = v
				chunks[i>>sparseShift] = true
			}
			for _, j := range []int{i, rng.Intn(span), span + rng.Intn(span), 1 << 40} {
				e := s.Get(j)
				if !chunks[j>>sparseShift] {
					if e != nil {
						t.Fatalf("seed %d step %d: Get(%d) in an unwritten chunk = %d, want nil", seed, step, j, *e)
					}
					continue
				}
				if e == nil || *e != model[j] {
					t.Fatalf("seed %d step %d: Get(%d) = %v, want %d", seed, step, j, e, model[j])
				}
			}
		}

		var visited []int
		s.All(func(i int, e *int) bool {
			if *e != model[i] {
				t.Fatalf("seed %d: All visits %d = %d, want %d", seed, i, *e, model[i])
			}
			visited = append(visited, i)
			return true
		})
		var want []int
		for c := range chunks {
			for j := 0; j < 1<<sparseShift; j++ {
				want = append(want, c<<sparseShift|j)
			}
		}
		slices.Sort(want)
		if !slices.Equal(visited, want) {
			t.Fatalf("seed %d: All visited %d entries, want the %d of %d written chunks in order", seed, len(visited), len(want), len(chunks))
		}

		n := 0
		s.All(func(int, *int) bool { n++; return n < 3 })
		if n != 3 {
			t.Fatalf("seed %d: All made %d calls, want 3 (it stops when yield returns false)", seed, n)
		}
	}
}
