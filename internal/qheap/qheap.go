// Package qheap implements the binary min-heap used as CPM's search heap H.
//
// Entries carry a float64 key (mindist / amindist from the query) and an
// opaque uint64 payload in which the core engine packs a cell index (it
// keeps the conceptual rectangles beside the heap). Compared to
// container/heap this avoids interface dispatch and per-push allocations:
// the heap is on the critical path of every NN computation (the paper's
// Section 4.1 cost model attributes the C_SH·log C_SH term to it).
//
// Ties on the key are broken by payload order — for the core engine, lower
// cell index first. The deterministic order makes search traces
// reproducible and testable.
package qheap

// Entry is a keyed heap element.
type Entry struct {
	Key     float64
	Payload uint64
}

// Heap is a binary min-heap of Entries ordered by (Key, Payload).
// The zero value is an empty heap ready for use.
type Heap struct {
	items []Entry
}

// New returns a heap with capacity pre-allocated for n entries.
func New(n int) *Heap {
	return &Heap{items: make([]Entry, 0, n)}
}

// Len returns the number of entries in the heap.
func (h *Heap) Len() int { return len(h.items) }

// Reset empties the heap, retaining its storage.
func (h *Heap) Reset() { h.items = h.items[:0] }

// Push inserts an entry.
func (h *Heap) Push(key float64, payload uint64) {
	h.items = append(h.items, Entry{Key: key, Payload: payload})
	h.up(len(h.items) - 1)
}

// Min returns the smallest entry without removing it.
// The second return value is false when the heap is empty.
func (h *Heap) Min() (Entry, bool) {
	if len(h.items) == 0 {
		return Entry{}, false
	}
	return h.items[0], true
}

// Pop removes and returns the smallest entry.
// The second return value is false when the heap is empty.
func (h *Heap) Pop() (Entry, bool) {
	n := len(h.items)
	if n == 0 {
		return Entry{}, false
	}
	top := h.items[0]
	h.items[0] = h.items[n-1]
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top, true
}

// Items returns the heap's backing slice in heap order (not sorted).
// Callers must not modify it; it is exposed for snapshotting the leftover
// search heap into the query table and for size accounting.
func (h *Heap) Items() []Entry { return h.items }

func less(a, b Entry) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Payload < b.Payload
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
