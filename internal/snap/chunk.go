// The chunk store deduplicates page-sized memory blobs by content. Nodes
// in a captured world routinely hold identical pages — replicated
// datasets, common boot state — and a world image stores each distinct
// page once, with per-node frame tables referring into the store by index.
// The shared zero page never reaches the store at all: mem.SnapshotFrames
// omits frames that were never written (they read the zero page), so
// "zero-page aware" costs nothing here by construction.
package snap

import (
	"bytes"
	"fmt"

	"shrimp/internal/hw"
)

// ChunkStore is a content-addressed set of immutable page blobs.
type ChunkStore struct {
	chunks [][]byte
	byHash map[uint64][]int // FNV-1a -> candidate indices (collision chain)

	// DupHits counts Put calls resolved to an existing chunk — the
	// dedup win, reported by pool stats and the bench suite.
	DupHits int
}

// NewChunkStore returns an empty store.
func NewChunkStore() *ChunkStore {
	return &ChunkStore{byHash: make(map[uint64][]int)}
}

// hashChunk is FNV-1a 64 over the blob, inlined rather than hash/fnv to
// avoid an interface allocation per page on the capture path.
func hashChunk(p []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range p {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

// Put interns a blob and returns its chunk index. The store retains the
// slice without copying; callers hand in sealed (copy-on-write) pages or
// decoded image bytes, both immutable for the store's lifetime. Hash
// collisions fall back to byte comparison, so equal indices mean equal
// bytes and distinct bytes always get distinct indices.
func (s *ChunkStore) Put(p []byte) int {
	h := hashChunk(p)
	for _, i := range s.byHash[h] {
		if bytes.Equal(s.chunks[i], p) {
			s.DupHits++
			return i
		}
	}
	i := len(s.chunks)
	s.chunks = append(s.chunks, p)
	s.byHash[h] = append(s.byHash[h], i)
	return i
}

// Get returns chunk i. The slice is shared; do not mutate.
func (s *ChunkStore) Get(i int) []byte { return s.chunks[i] }

// encode writes the store as a chunk-count-prefixed sequence of blobs.
// Chunk indices are positions in this sequence, so the section is
// self-describing and deterministic (insertion order is capture order,
// which is itself deterministic: nodes ascending, frames ascending).
func (s *ChunkStore) encode(w *Writer) {
	w.U64(uint64(len(s.chunks)))
	for _, c := range s.chunks {
		w.Bytes(c)
	}
}

// decodeChunkStore reads a store back. Blobs alias the image buffer —
// immutable by the Reader.Bytes contract — and re-intern into the hash
// index so a decoded store keeps deduplicating.
func decodeChunkStore(r *Reader) *ChunkStore {
	n := r.U64()
	s := NewChunkStore()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		c := r.Bytes()
		if r.Err() != nil {
			break
		}
		if len(c) != hw.Page {
			r.fail(fmt.Errorf("snap: chunk of %d bytes; v%d images store %d-byte pages", len(c), Version, hw.Page))
			break
		}
		h := hashChunk(c)
		s.chunks = append(s.chunks, c)
		s.byHash[h] = append(s.byHash[h], len(s.chunks)-1)
	}
	return s
}
