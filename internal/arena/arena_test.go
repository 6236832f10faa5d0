package arena

import (
	"slices"
	"testing"
)

// TestSlabCarves checks the carving rules: cap == len slices, nil for an
// empty request, a fresh chunk when the tail is too short, an exact chunk
// for an oversized request, and no slice ever handed out twice.
func TestSlabCarves(t *testing.T) {
	var s Slab[int]
	if s.Make(0) != nil || s.Copy(nil) != nil {
		t.Fatal("an empty request must carve nothing")
	}
	var held [][]int
	for i := 1; len(held) < 3*Chunk/10; i++ {
		src := make([]int, 1+i%17)
		for j := range src {
			src[j] = i
		}
		out := s.Copy(src)
		if len(out) != len(src) || cap(out) != len(out) || !slices.Equal(out, src) {
			t.Fatalf("carve %d = %v (cap %d), want a tight copy of %v", i, out, cap(out), src)
		}
		_ = append(out, -1) // must reallocate, not write into the next slice
		held = append(held, out)
	}
	big := s.Make(2 * Chunk)
	if len(big) != 2*Chunk || cap(big) != len(big) {
		t.Fatalf("oversized carve: len %d cap %d", len(big), cap(big))
	}
	for i, h := range held {
		for _, v := range h {
			if v != i+1 {
				t.Fatalf("slice %d was overwritten: %v", i, h)
			}
		}
	}
}

// TestNilSlabAllocatesExactly: a nil *Slab is the arena-less path.
func TestNilSlabAllocatesExactly(t *testing.T) {
	var s *Slab[float64]
	a, b := s.Make(3), s.Copy([]float64{1, 2})
	if len(a) != 3 || cap(a) != 3 || !slices.Equal(b, []float64{1, 2}) || cap(b) != 2 {
		t.Fatalf("nil slab: %v (cap %d), %v (cap %d)", a, cap(a), b, cap(b))
	}
	if s.Make(0) != nil {
		t.Fatal("nil slab: an empty request must carve nothing")
	}
}
