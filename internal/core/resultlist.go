package core

import (
	"math"

	"cpm/internal/model"
)

// resultList is the best_NN list of a query: the k best (distance, id)
// pairs found so far, sorted ascending by the repository-wide (Dist, ID)
// order.
//
// The paper's analysis assumes a red-black tree (log k probes); with the
// experiment range k ≤ 256 a sorted slice with binary-search insertion has
// the same asymptotics and far better constants, so that is what we use.
// The same structure implements
// the in_list of the batched update handler (Figure 3.8), which is "a
// sorted list of size k" with eviction.
type resultList struct {
	k     int
	items []model.Neighbor
}

// arm empties the list for a query of k neighbors. Storage is kept — a
// recycled query slot brings its lists along — and only made when it would
// not hold the list's first entries; past that, offer grows it.
func (r *resultList) arm(k int) {
	r.k = k
	if cap(r.items) < min(k, 64) {
		r.items = make([]model.Neighbor, 0, min(k, 64))
	}
	r.items = r.items[:0]
}

// kthDist returns the paper's best_dist: the distance of the kth neighbor,
// or +Inf while the list holds fewer than k entries.
func (r *resultList) kthDist() float64 {
	if len(r.items) < r.k {
		return math.Inf(1)
	}
	return r.items[len(r.items)-1].Dist
}

// full reports whether the list holds k entries.
func (r *resultList) full() bool { return len(r.items) == r.k }

// len returns the number of entries.
func (r *resultList) len() int { return len(r.items) }

// offer considers (id, dist), inserting it in order and evicting the worst
// entry when the list would exceed k. It reports whether the entry was
// retained.
func (r *resultList) offer(id model.ObjectID, dist float64) bool {
	n := model.Neighbor{ID: id, Dist: dist}
	if len(r.items) == r.k {
		if !n.Less(r.items[len(r.items)-1]) {
			return false
		}
		r.items = r.items[:len(r.items)-1]
	}
	r.insert(n)
	return true
}

// insert places n at its rank: before the first entry it precedes, found
// by a binary search without a closure.
func (r *resultList) insert(n model.Neighbor) {
	lo, hi := 0, len(r.items)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); n.Less(r.items[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	r.items = append(r.items, model.Neighbor{})
	copy(r.items[lo+1:], r.items[lo:])
	r.items[lo] = n
}

// contains reports whether id is in the list. Linear scan: k is small and
// the list is contiguous in cache.
func (r *resultList) contains(id model.ObjectID) bool {
	return r.indexOf(id) >= 0
}

func (r *resultList) indexOf(id model.ObjectID) int {
	for i := range r.items {
		if r.items[i].ID == id {
			return i
		}
	}
	return -1
}

// remove deletes id from the list, reporting whether it was present.
func (r *resultList) remove(id model.ObjectID) bool {
	i := r.indexOf(id)
	if i < 0 {
		return false
	}
	r.items = append(r.items[:i], r.items[i+1:]...)
	return true
}

// updateDist re-positions id with a new distance (paper Figure 3.8 line 9:
// "update the order in q.best_NN"). It reports whether id was present.
func (r *resultList) updateDist(id model.ObjectID, dist float64) bool {
	if !r.remove(id) {
		return false
	}
	r.insert(model.Neighbor{ID: id, Dist: dist})
	return true
}

// reset empties the list, retaining storage.
func (r *resultList) reset() { r.items = r.items[:0] }

// snapshot returns a copy of the entries, ordered.
func (r *resultList) snapshot() []model.Neighbor {
	out := make([]model.Neighbor, len(r.items))
	copy(out, r.items)
	return out
}
