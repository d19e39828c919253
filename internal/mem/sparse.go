package mem

// sparseShift sizes a Sparse chunk: 256 entries, 1MB of 4KB pages.
const sparseShift = 8

type sparseChunk[E any] [1 << sparseShift]E

// Sparse is a two-level table of per-page entries, indexed by a page
// number and filled in chunk by chunk on first write. The zero value is an
// empty table; an entry in a chunk never written reads as absent (nil), so
// a table covering a 40MB memory or a whole address space costs only the
// chunks its pages touch. Memory's frames and hooks, the kernel's page
// table and the NIC's incoming page table are all Sparse.
type Sparse[E any] struct {
	root []*sparseChunk[E]
}

// Get returns entry i for reading and updating in place, or nil when its
// chunk was never written (including any i past the root).
func (s *Sparse[E]) Get(i int) *E {
	if ci := uint(i) >> sparseShift; ci < uint(len(s.root)) {
		if c := s.root[ci]; c != nil {
			return &c[i&(1<<sparseShift-1)]
		}
	}
	return nil
}

// W returns entry i for writing, materializing its chunk (and growing the
// root) when needed. The root grows a slot per append: a sized make would
// push W past the inliner's budget, and roots stay a few dozen slots.
func (s *Sparse[E]) W(i int) *E {
	ci := i >> sparseShift
	for ci >= len(s.root) {
		s.root = append(s.root, nil)
	}
	c := s.root[ci]
	if c == nil {
		c = new(sparseChunk[E])
		s.root[ci] = c
	}
	return &c[i&(1<<sparseShift-1)]
}

// All calls yield for every entry of every materialized chunk, in index
// order, until yield returns false. It is a plain callback rather than an
// iterator because the module's language version predates range-over-func.
func (s *Sparse[E]) All(yield func(int, *E) bool) {
	for ci, c := range s.root {
		if c == nil {
			continue
		}
		for j := range c {
			if !yield(ci<<sparseShift|j, &c[j]) {
				return
			}
		}
	}
}
