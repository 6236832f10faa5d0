package qheap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	var h Heap
	if h.Len() != 0 {
		t.Errorf("zero-value heap Len = %d", h.Len())
	}
	if _, ok := h.Pop(); ok {
		t.Error("Pop on empty heap reported ok")
	}
	if _, ok := h.Min(); ok {
		t.Error("Min on empty heap reported ok")
	}
}

func TestPushPopOrdered(t *testing.T) {
	h := New(8)
	keys := []float64{5, 1, 4, 2, 3, 0, 9, 7}
	for i, k := range keys {
		h.Push(k, uint64(i))
	}
	prev := -1.0
	for h.Len() > 0 {
		e, ok := h.Pop()
		if !ok {
			t.Fatal("Pop failed on non-empty heap")
		}
		if e.Key < prev {
			t.Fatalf("Pop out of order: %v after %v", e.Key, prev)
		}
		prev = e.Key
	}
}

func TestTieBreakByPayload(t *testing.T) {
	h := New(4)
	h.Push(1.0, 30)
	h.Push(1.0, 10)
	h.Push(1.0, 20)
	want := []uint64{10, 20, 30}
	for _, w := range want {
		e, _ := h.Pop()
		if e.Payload != w {
			t.Fatalf("tie-break order wrong: got %d, want %d", e.Payload, w)
		}
	}
}

func TestMinMatchesPop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := New(0)
	for i := 0; i < 100; i++ {
		h.Push(rng.Float64(), uint64(i))
	}
	for h.Len() > 0 {
		m, _ := h.Min()
		p, _ := h.Pop()
		if m != p {
			t.Fatalf("Min %v != Pop %v", m, p)
		}
	}
}

// TestHeapSortEquivalence: pushing arbitrary keys and popping yields the
// same order as sorting — the heap invariant property test.
func TestHeapSortEquivalence(t *testing.T) {
	f := func(keys []float64) bool {
		h := New(len(keys))
		for i, k := range keys {
			h.Push(k, uint64(i))
		}
		var popped []Entry
		for {
			e, ok := h.Pop()
			if !ok {
				break
			}
			popped = append(popped, e)
		}
		if len(popped) != len(keys) {
			return false
		}
		want := make([]Entry, len(popped))
		copy(want, popped)
		sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
		for i := range want {
			if !sameEntry(want[i], popped[i]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func sameEntry(a, b Entry) bool {
	// NaN keys never occur in CPM (mindists are finite) but the comparison
	// here must not treat two NaN entries as different.
	return a.Payload == b.Payload && (a.Key == b.Key || (a.Key != a.Key && b.Key != b.Key))
}

func TestInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := New(0)
	// Mixed workload: the popped sequence must never go backwards relative
	// to the maximum popped so far *among entries present at pop time*.
	var reference []float64
	for op := 0; op < 5000; op++ {
		if rng.Intn(3) != 0 || h.Len() == 0 {
			k := rng.Float64()
			h.Push(k, uint64(op))
			reference = append(reference, k)
		} else {
			e, _ := h.Pop()
			// e must be the minimum of reference.
			minIdx := 0
			for i, k := range reference {
				if k < reference[minIdx] {
					minIdx = i
				}
			}
			if e.Key != reference[minIdx] {
				t.Fatalf("op %d: popped %v, expected min %v", op, e.Key, reference[minIdx])
			}
			reference = append(reference[:minIdx], reference[minIdx+1:]...)
		}
	}
}

func TestReset(t *testing.T) {
	h := New(4)
	h.Push(1, 1)
	h.Push(2, 2)
	h.Reset()
	if h.Len() != 0 {
		t.Errorf("Len after Reset = %d", h.Len())
	}
	h.Push(3, 3)
	if e, _ := h.Pop(); e.Payload != 3 {
		t.Errorf("heap unusable after Reset: %v", e)
	}
}

func TestItemsLen(t *testing.T) {
	h := New(4)
	for i := 0; i < 5; i++ {
		h.Push(float64(5-i), uint64(i))
	}
	if len(h.Items()) != 5 {
		t.Errorf("Items len = %d, want 5", len(h.Items()))
	}
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]float64, 1024)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := New(len(keys))
		for j, k := range keys {
			h.Push(k, uint64(j))
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}
