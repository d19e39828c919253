package mem

import "unsafe"

// sparseShift sizes a Sparse chunk: 256 entries, 1MB of 4KB pages.
const sparseShift = 8

type sparseChunk[E any] [1 << sparseShift]E

// maxPooledChunkBytes caps the chunks all element types' free lists hold
// together: about what a 64-node world's tables take, and with the frame
// free list's 4MB still under the 8MB of live heap the bench package's
// world-shutdown test allows, so chunks kept for reuse never read as a
// leaked world.
const maxPooledChunkBytes = 2 << 20

// chunkPools maps each element type, keyed by a nil *E, to its free list,
// a *[]*sparseChunk[E]; pooledChunkBytes counts the bytes they all hold.
// One simulation thread per process, so plain stacks suffice.
var (
	chunkPools       = map[any]any{}
	pooledChunkBytes int
)

// PooledChunkBytes reports the bytes of table chunks the free lists hold
// for reuse.
func PooledChunkBytes() int { return pooledChunkBytes }

// chunkPool returns E's free list, making it on first use.
func chunkPool[E any]() *[]*sparseChunk[E] {
	key := any((*E)(nil))
	if p, ok := chunkPools[key]; ok {
		return p.(*[]*sparseChunk[E])
	}
	p := new([]*sparseChunk[E])
	chunkPools[key] = p
	return p
}

// Sparse is a two-level table of per-page entries, indexed by a page
// number and filled in chunk by chunk on first write. The zero value is an
// empty table; an entry in a chunk never written reads as absent (nil), so
// a table covering a 40MB memory or a whole address space costs only the
// chunks its pages touch. Memory's frames, hooks and observers, the
// kernel's page table and the NIC's incoming page table are all Sparse.
//
// Chunks outlive their tables: Release clears a table's chunks onto its
// element type's process-level free list, and W takes a chunk from that
// list before it allocates one.
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
// root) when needed. Its slow path is a call, which puts W past the
// inliner's budget, so a per-store path reads an entry that is usually
// there through Get, which inlines, and calls W only when Get finds none.
func (s *Sparse[E]) W(i int) *E {
	if e := s.Get(i); e != nil {
		return e
	}
	return s.fill(i)
}

// fill is W's slow path: it grows the root to cover entry i and gives i's
// chunk a zeroed chunk, from the free list when it has one.
func (s *Sparse[E]) fill(i int) *E {
	ci := i >> sparseShift
	if ci >= len(s.root) {
		s.root = append(s.root, make([]*sparseChunk[E], ci+1-len(s.root))...)
	}
	free := chunkPool[E]()
	if l := len(*free); l > 0 {
		s.root[ci] = (*free)[l-1]
		(*free)[l-1] = nil
		*free = (*free)[:l-1]
		pooledChunkBytes -= int(unsafe.Sizeof(sparseChunk[E]{}))
	} else {
		s.root[ci] = new(sparseChunk[E])
	}
	return &s.root[ci][i&(1<<sparseShift-1)]
}

// Release empties s and hands its chunks to E's free list, each cleared as
// it is pushed, so a pooled chunk holds no pointer into the world it came
// from. Chunks past the shared byte cap go to the garbage collector. Call
// it once nothing reads s's entries again; a second call finds s empty and
// pushes nothing.
func (s *Sparse[E]) Release() {
	if len(s.root) == 0 {
		return
	}
	size := int(unsafe.Sizeof(sparseChunk[E]{}))
	free := chunkPool[E]()
	for _, c := range s.root {
		if c != nil && pooledChunkBytes+size <= maxPooledChunkBytes {
			clear(c[:])
			*free = append(*free, c)
			pooledChunkBytes += size
		}
	}
	s.root = nil
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
