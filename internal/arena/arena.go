// Package arena is the chunked slice allocator behind the allocation-free
// hand-off of result diffs: the engine carves the slices of the events it
// emits from it (internal/core), and the wire decoders carve the slices of
// decoded frames from it (internal/wire). The influence index carves its
// lists' runs from it too (internal/grid); each run has one holder, the
// index, which alone writes it.
//
// Ownership: a slice is cut from the unused tail of the current chunk, with
// cap == len, so an append by its holder reallocates instead of writing into
// the neighbouring slice. A chunk is never reused: when the tail is too
// short a fresh chunk starts and the old one is left to the slices that
// point into it, which therefore stay valid — and must be treated as
// read-only — for as long as anyone holds them. A slice retained
// indefinitely pins its whole chunk: long-lived holders copy.
package arena

// Chunk is the size of a chunk in elements: 64 KB of neighbors, 16 KB of
// ids. A paper-default tick (500 k=16 diffs) fills about five.
const Chunk = 4096

// Slab hands out slices of T cut from chunks of Chunk elements. The zero
// value is ready; a Slab serves one goroutine. A nil *Slab allocates every
// slice exactly, so a decoder without an arena runs the same code.
type Slab[T any] struct {
	free []T // the unused tail of the current chunk
}

// Make returns a zeroed cap == len slice of n elements, nil for n == 0. A
// request that does not fit the current chunk starts a fresh one; an
// oversized request gets an exact chunk of its own.
func (s *Slab[T]) Make(n int) []T {
	switch {
	case n == 0:
		return nil
	case s == nil:
		return make([]T, n)
	case n > len(s.free):
		s.free = make([]T, max(n, Chunk))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Copy returns a cap == len copy of src carved like Make (nil for an empty
// src).
func (s *Slab[T]) Copy(src []T) []T {
	out := s.Make(len(src))
	copy(out, src)
	return out
}
